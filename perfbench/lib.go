package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"eccheck"
	"eccheck/internal/model"
)

// libWorkload is one library-API workload: a system shape, its seeded
// state, and the body of one closed-loop iteration.
type libWorkload struct {
	name   string
	cfg    eccheck.Config
	build  func(seed uint64) ([]*eccheck.StateDict, error)
	warmup int
	// step runs iteration i; it records samples and counts ops on r.
	step func(p *libPass, r *run, i int)
	// finish runs the end-of-run checks (untimed except for loads, which
	// feed load samples where the step has none).
	finish func(p *libPass, r *run)
	// headline names the round whose latency is the workload's tracing
	// overhead reference.
	headline string
	micro    microShape
}

// libPass is one measured pass over one engine.
type libPass struct {
	ctx     context.Context
	w       *libWorkload
	eng     engine
	dicts   []*eccheck.StateDict
	payload int64
	rng     *rand.Rand
	rec     *recorder // nil when untraced
	// recording opens round spans (traced pass) and layers brackets
	// headline ops with metric snapshots (untraced pass of a traced run).
	recording bool
	layers    bool
	m         libMeasure
}

// libMeasure collects one pass's samples.
type libMeasure struct {
	stall, commit, load, headline samples
	saveBytes                     float64
	saveSecs                      float64
	saves                         int
	alloc                         allocMeter
	savePhases, loadPhases        map[string]samples
	lag                           samples
	fetched, loadPayload          float64
	changedBufs, totalBufs        int
	counters                      map[string]int64 // summed headline-op deltas
	headOps                       int
}

func (p *libPass) open(name string) int64 {
	if !p.recording {
		return 0
	}
	return p.rec.open("core", name)
}

func (p *libPass) close(id int64) {
	if id != 0 {
		p.rec.close(id)
	}
}

// snap returns a counter snapshot when layer counters are collected.
func (p *libPass) snap() map[string]int64 {
	if !p.layers {
		return nil
	}
	return counterTotals(p.eng.Metrics())
}

// delta adds the counter movement since before to the headline totals.
func (p *libPass) delta(before map[string]int64) {
	p.m.headOps++
	if before == nil {
		return
	}
	for name, v := range counterTotals(p.eng.Metrics()) {
		p.m.counters[name] += v - before[name]
	}
}

// counterTotals sums every counter series by name.
func counterTotals(s eccheck.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range s.Counters {
		out[c.Name] += c.Value
	}
	return out
}

func (p *libPass) addSave(stall, commit time.Duration, rep *eccheck.SaveReport) {
	p.m.stall = append(p.m.stall, ms(stall))
	p.m.commit = append(p.m.commit, ms(commit))
	p.m.saveBytes += float64(p.payload)
	p.m.saveSecs += commit.Seconds()
	p.m.saves++
	if rep != nil {
		for ph, d := range rep.Phases {
			p.m.savePhases[ph] = append(p.m.savePhases[ph], ms(d))
		}
		p.m.lag = append(p.m.lag, ms(rep.StragglerLag))
	}
}

func (p *libPass) addLoad(d time.Duration, rep *eccheck.LoadReport) {
	p.m.load = append(p.m.load, ms(d))
	if rep != nil {
		for ph, v := range rep.Phases {
			p.m.loadPhases[ph] = append(p.m.loadPhases[ph], ms(v))
		}
		p.m.fetched += float64(rep.BytesFetched)
		p.m.loadPayload += float64(p.payload)
	}
}

// saveRound runs one timed SaveAsync+Wait round.
func (p *libPass) saveRound(r *run, head bool) {
	id := p.open("save")
	before := p.snap()
	if head {
		p.m.alloc.start()
	}
	t0 := time.Now()
	h, err := p.eng.SaveAsync(p.ctx, p.dicts)
	var rep *eccheck.SaveReport
	stall := time.Since(t0)
	if err == nil {
		rep, err = h.Wait(p.ctx)
	}
	commit := time.Since(t0)
	if head {
		p.m.alloc.stop()
	}
	p.close(id)
	r.op(err)
	if err != nil {
		return
	}
	p.addSave(stall, commit, rep)
	if head {
		p.delta(before)
		p.m.headline = append(p.m.headline, ms(commit))
	}
}

// fullLoad fails and replaces victims, then times a full Load and checks
// every recovered byte against the live dicts (the last saved state).
func (p *libPass) fullLoad(r *run, victims []int, wantWorkflow string, head bool) {
	for _, v := range victims {
		r.op(p.eng.FailNode(v))
		r.op(p.eng.ReplaceNode(v))
	}
	var id int64
	if head {
		id = p.open("load")
	}
	before := p.snap()
	if head {
		p.m.alloc.start()
	}
	t0 := time.Now()
	out, rep, err := p.eng.Load(p.ctx)
	d := time.Since(t0)
	if head {
		p.m.alloc.stop()
	}
	p.close(id)
	r.op(err)
	if err != nil {
		return
	}
	p.addLoad(d, rep)
	if head {
		p.delta(before)
		p.m.headline = append(p.m.headline, ms(d))
	}
	r.check(rep.Workflow == wantWorkflow, "load after failing %v: workflow %q, want %q", victims, rep.Workflow, wantWorkflow)
	r.check(equalDicts(out, p.dicts), "load after failing %v: recovered bytes differ from the last save", victims)
}

func equalDicts(got, want []*eccheck.StateDict) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return false
		}
	}
	return true
}

// dirtyAll mutates every tensor at a 64 KiB stride (offset 0 included),
// so every buffer window of every worker's packet changes, and stamps the
// iteration.
func dirtyAll(dicts []*eccheck.StateDict, rng *rand.Rand, iter int) {
	for _, sd := range dicts {
		for _, e := range sd.TensorEntries() {
			data := e.Tensor.Data()
			v := byte(rng.Uint32()) | 1
			for off := 0; off < len(data); off += 64 << 10 {
				data[off] ^= v
			}
		}
		sd.SetMeta("iteration", eccheck.IntValue(int64(iter)))
	}
}

func verifyIntegrity(p *libPass, r *run) {
	rep, err := p.eng.VerifyIntegrity()
	r.op(err)
	if err == nil {
		r.check(len(rep.CorruptSegments) == 0, "integrity scan found corrupt segments %v", rep.CorruptSegments)
	}
}

func payloadOf(dicts []*eccheck.StateDict) int64 {
	var n int64
	for _, sd := range dicts {
		n += int64(sd.TensorBytes())
	}
	return n
}

// denseShape is BenchmarkFunctionalSave's shape: 4 nodes x 2 GPUs
// (TP2 x PP4), k=m=2, ModelZoo()[0] at Scale 16, 1 MiB buffers.
func denseShape(o options, transportKind eccheck.TransportKind) (eccheck.Config, func(uint64) ([]*eccheck.StateDict, error), microShape) {
	cfg := eccheck.Config{Nodes: 4, GPUsPerNode: 2, TPDegree: 2, PPStages: 4, K: 2, M: 2,
		DisableRemote: true, BufferSize: 1 << 20, Transport: transportKind}
	scale := 16
	if o.tiny {
		scale, cfg.BufferSize = 32, 64<<10
	}
	build := func(seed uint64) ([]*eccheck.StateDict, error) {
		topo, err := eccheck.NewTopology(cfg.Nodes, cfg.GPUsPerNode, cfg.TPDegree, cfg.PPStages)
		if err != nil {
			return nil, err
		}
		opt := eccheck.NewBuildOptions()
		opt.Scale = scale
		opt.Seed = seed
		return eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], topo, opt)
	}
	return cfg, build, microShape{k: cfg.K, m: cfg.M, shard: cfg.BufferSize}
}

func runDenseSave(o options, r *run) error {
	cfg, build, micro := denseShape(o, eccheck.TransportMemory)
	w := &libWorkload{name: "dense-save", cfg: cfg, build: build, warmup: 8, headline: "save", micro: micro,
		step: func(p *libPass, r *run, i int) {
			dirtyAll(p.dicts, p.rng, i)
			p.saveRound(r, true)
		},
		finish: func(p *libPass, r *run) {
			verifyIntegrity(p, r)
			// Every two-node failure pattern, both data nodes included,
			// must decode back to the last saved bytes. Six passes give
			// the load percentiles thirty-six samples, enough for a
			// steady median across the mix of decode and replacement.
			n := p.w.cfg.Nodes
			for pass := 0; pass < 6; pass++ {
				for a := 0; a < n; a++ {
					for b := a + 1; b < n; b++ {
						p.fullLoad(r, []int{a, b}, wantWorkflow(p.eng, a, b), false)
					}
				}
			}
		},
	}
	return runLib(o, r, w)
}

// wantWorkflow is "decode" when a failed node held a data chunk.
func wantWorkflow(eng engine, failed ...int) string {
	for _, d := range eng.DataNodes() {
		for _, f := range failed {
			if d == f {
				return "decode"
			}
		}
	}
	return "replacement"
}

func runRecover(o options, r *run) error {
	cfg, build, micro := denseShape(o, eccheck.TransportTCP)
	offData, offOther, offSave := int(o.seed%2), int(o.seed%3), int(o.seed/3%3)
	w := &libWorkload{name: "recover", cfg: cfg, build: build, warmup: 3, headline: "load", micro: micro,
		step: func(p *libPass, r *run, i int) {
			// Seeded rotation over m victims that always includes a data
			// node, so every load decodes.
			data := p.eng.DataNodes()
			first := data[(i+offData)%len(data)]
			var rest []int
			for n := 0; n < p.w.cfg.Nodes; n++ {
				if n != first {
					rest = append(rest, n)
				}
			}
			victims := []int{first}
			for j := 1; j < p.w.cfg.M; j++ {
				victims = append(victims, rest[(i+offOther+j-1)%len(rest)])
			}
			p.fullLoad(r, victims, "decode", true)
			// Re-save changed state after every third load (seeded
			// phase), so stale bytes cannot pass the next load's check.
			if (i+offSave)%3 == 2 {
				dirtyAll(p.dicts, p.rng, i)
				p.saveRound(r, false)
			}
		},
		finish: verifyIntegrity,
	}
	return runLib(o, r, w)
}

func runMoESparse(o options, r *run) error {
	cfg := eccheck.Config{Nodes: 8, GPUsPerNode: 2, TPDegree: 2, PPStages: 8, K: 4, M: 4,
		DisableRemote: true, BufferSize: 64 << 10, Incremental: true}
	mc := model.MoEConfig{Experts: 64, HotExperts: 4, Hidden: 128, FFN: 512}
	if o.tiny {
		mc = model.MoEConfig{Experts: 16, HotExperts: 1, Hidden: 32, FFN: 64}
		cfg.BufferSize = 4 << 10
	}
	world := cfg.Nodes * cfg.GPUsPerNode
	hot := mc.HotRanks(world)
	opt := model.NewBuildOptions()
	opt.Seed = o.seed
	build := func(seed uint64) ([]*eccheck.StateDict, error) {
		bo := opt
		bo.Seed = seed
		return model.BuildMoEClusterStateDicts(mc, world, bo)
	}
	stepBase := int64(o.seed%1000) * 1000
	w := &libWorkload{name: "moe-sparse", cfg: cfg, build: build, warmup: 3, headline: "round",
		micro: microShape{k: cfg.K, m: cfg.M, shard: cfg.BufferSize},
		step: func(p *libPass, r *run, i int) {
			if err := model.MutateHotExperts(mc, world, p.dicts, stepBase+int64(i)+1, opt); err != nil {
				r.op(err)
				return
			}
			id := p.open("round")
			before := p.snap()
			p.m.alloc.start()
			t0 := time.Now()
			rep, err := p.eng.SaveIncremental(p.ctx, p.dicts)
			commit := time.Since(t0)
			var load time.Duration
			if err == nil {
				load = partialLoad(p, r, hot, i)
			}
			p.m.alloc.stop()
			p.close(id)
			if err != nil {
				r.op(err)
				return
			}
			r.op(nil)
			// SaveIncremental is synchronous: the caller is blocked until
			// the new version is protected, so stall equals commit.
			p.addSave(commit, commit, nil)
			p.m.changedBufs += rep.ChangedBuffers
			p.m.totalBufs += rep.TotalBuffers
			r.check(!rep.Full, "incremental save %d fell back to a full save", i)
			p.delta(before)
			p.m.headline = append(p.m.headline, ms(commit+load))
			// A partial load is ~1% of a round's time; repeating it gives
			// its p90 enough samples in a run.
			for j := 1; j < partialLoadsPerRound; j++ {
				partialLoad(p, r, hot, i)
			}
		},
		finish: verifyIntegrity,
	}
	return runLib(o, r, w)
}

// partialLoadsPerRound is how many timed LoadPartial calls follow each
// incremental save in moe-sparse.
const partialLoadsPerRound = 8

// partialLoad times one LoadPartial of the hot ranks and checks their
// bytes against the mutated state.
func partialLoad(p *libPass, r *run, hot []int, i int) time.Duration {
	t0 := time.Now()
	out, rep, err := p.eng.LoadPartial(p.ctx, hot)
	d := time.Since(t0)
	r.op(err)
	if err != nil {
		return d
	}
	p.addLoad(d, rep)
	ok := len(out) == len(hot)
	for _, rank := range hot {
		ok = ok && out[rank] != nil && out[rank].Equal(p.dicts[rank])
	}
	r.check(ok, "partial load %d: hot ranks differ from the mutated state", i)
	return d
}

// setupLib builds the seeded state and a fresh engine and commits the
// first checkpoint; the returned duration is the benchmark's set-up time.
func setupLib(ctx context.Context, w *libWorkload, o options, rec *recorder) (*libPass, time.Duration, error) {
	// Every set-up starts from a collected heap, so earlier set-ups and
	// passes do not tax it with their garbage.
	runtime.GC()
	t0 := time.Now()
	dicts, err := w.build(o.seed)
	if err != nil {
		return nil, 0, fmt.Errorf("build state: %w", err)
	}
	eng, err := newEngine(w.cfg, rec)
	if err != nil {
		return nil, 0, fmt.Errorf("initialize: %w", err)
	}
	if _, err := eng.Save(ctx, dicts); err != nil {
		_ = eng.Close()
		return nil, 0, fmt.Errorf("initial save: %w", err)
	}
	d := time.Since(t0)
	p := &libPass{ctx: ctx, w: w, eng: eng, dicts: dicts, payload: payloadOf(dicts), rec: rec,
		rng: rand.New(rand.NewPCG(o.seed, 0x5eed))}
	p.m.savePhases = map[string]samples{}
	p.m.loadPhases = map[string]samples{}
	p.m.counters = map[string]int64{}
	return p, d, nil
}

// measure runs warm-up iterations, then iterations until the deadline,
// then the end-of-run checks. Only the timed loop is sampled.
func (p *libPass) measure(r *run, seconds float64) (wall time.Duration, peakMB float64) {
	warm := p.w.warmup
	if r.opts.tiny {
		warm = 1
	}
	recording := p.recording
	p.recording = false
	i := 0
	for ; i < warm; i++ {
		p.w.step(p, r, i)
	}
	p.recording = recording
	p.m = libMeasure{savePhases: map[string]samples{}, loadPhases: map[string]samples{}, counters: map[string]int64{}}
	runtime.GC()

	heap := startHeapPeak(2 * time.Millisecond)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for ; time.Now().Before(deadline); i++ {
		p.w.step(p, r, i)
	}
	wall = time.Since(start)
	peakMB = heap.end()
	p.recording = false
	runtime.GC()
	p.w.finish(p, r)
	return wall, peakMB
}

func runLib(o options, r *run, w *libWorkload) error {
	ctx := context.Background()
	if !o.trace {
		setups := 5
		if o.tiny {
			setups = 1
		}
		var setup samples
		var p *libPass
		for i := 0; i < setups; i++ {
			if p != nil {
				if err := p.eng.Close(); err != nil {
					return err
				}
			}
			var d time.Duration
			var err error
			p, d, err = setupLib(ctx, w, o, nil)
			if err != nil {
				return err
			}
			setup = append(setup, d.Seconds())
		}
		defer func() { _ = p.eng.Close() }()
		wall, peak := p.measure(r, o.seconds)
		r.set("setup_s", setup.quantile(0.5))
		r.samples["setup_s"] = len(setup)
		r.info["setup_runs_s"] = setup
		endToEndLib(r, p, wall, peak)
		return nil
	}

	// Traced run: an untraced pass through the public API for report and
	// counter attribution and the overhead reference, then a traced pass
	// over the decorated stack for spans.
	half := o.seconds / 2
	plain, _, err := setupLib(ctx, w, o, nil)
	if err != nil {
		return err
	}
	plain.layers = true
	plain.measure(r, half)
	if err := plain.eng.Close(); err != nil {
		return err
	}
	rec := newRecorder()
	traced, _, err := setupLib(ctx, w, o, rec)
	if err != nil {
		return err
	}
	traced.recording = true
	traced.measure(r, half)
	if err := traced.eng.Close(); err != nil {
		return err
	}
	microVals, err := runMicro(rec, w.micro, o)
	if err != nil {
		return err
	}
	stats := rec.attribute()
	layersFromReports(r, plain)
	layersFromSpans(r, stats, w.headline)
	for k, v := range microVals {
		r.set(k, v)
	}
	for _, name := range []string{"daemon.slot_wait_ms_p50", "daemon.server_round_ms_p50",
		"daemon.http_overhead_ms_p50", "daemon.response_kb", "daemon.self_ms"} {
		r.set(name, 0)
	}
	r.set("trace.overhead_ms", traced.m.headline.quantile(0.5)-plain.m.headline.quantile(0.5))
	r.samples["trace.untraced_"+w.headline] = len(plain.m.headline)
	r.samples["trace.traced_"+w.headline] = len(traced.m.headline)
	r.info["payload_bytes_per_op"] = plain.payload
	path, err := writeTraceFiles(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed), rec, stats)
	if err != nil {
		return err
	}
	r.info["trace_file"] = path
	return nil
}

// endToEndLib sets the end-to-end metrics of an untraced library pass.
func endToEndLib(r *run, p *libPass, wall time.Duration, peakMB float64) {
	r.set("save_stall_ms_p50", p.m.stall.quantile(0.5))
	r.samples["save_stall_ms"] = len(p.m.stall)
	r.setDist("save_commit_ms", p.m.commit, 50, 90)
	if p.m.saveSecs > 0 {
		r.set("save_gb_s", p.m.saveBytes/p.m.saveSecs/1e9)
	} else {
		r.set("save_gb_s", 0)
	}
	r.set("saves_per_s", float64(p.m.saves)/wall.Seconds())
	r.setDist("load_ms", p.m.load, 50, 90)
	mb, allocs := p.m.alloc.perOp()
	r.set("alloc_mb_per_op", mb)
	r.set("allocs_per_op", allocs)
	r.samples["alloc_ops"] = p.m.alloc.ops
	r.set("peak_heap_mb", peakMB)
	r.info["payload_bytes_per_op"] = p.payload
	r.info["measured_s"] = wall.Seconds()
}

// layersFromReports sets the per-layer metrics read from round reports and
// metric-counter deltas of the untraced pass.
func layersFromReports(r *run, p *libPass) {
	for _, ph := range []string{"offload", "serialize", "encode", "xor", "stage", "p2p", "barrier", "straggle", "promote"} {
		r.set("core.save."+ph+"_ms", p.m.savePhases[ph].quantile(0.5))
	}
	r.set("core.save.straggler_lag_ms", p.m.lag.quantile(0.5))
	for _, ph := range []string{"scan", "fetch", "rebuild", "smallsync", "redistribute"} {
		r.set("core.load."+ph+"_ms", p.m.loadPhases[ph].quantile(0.5))
	}
	r.set("core.load.fetched_bytes_per_payload_byte", ratio(p.m.fetched, p.m.loadPayload))
	r.set("core.incremental.changed_buffer_frac", ratio(float64(p.m.changedBufs), float64(p.m.totalBufs)))
	c := p.m.counters
	ops := float64(p.m.headOps)
	payload := float64(p.payload) * ops
	r.set("transport.send_bytes_per_payload_byte", ratio(float64(c["transport_send_bytes_total"]), payload))
	r.set("transport.sends_per_op", ratio(float64(c["transport_sends_total"]), ops))
	r.set("transport.errors_per_op", ratio(float64(c["transport_send_errors_total"]+c["transport_recv_errors_total"]), ops))
	r.set("cluster.store_bytes_per_payload_byte", ratio(float64(c["hostmem_store_bytes_total"]), payload))
	r.set("cluster.stores_per_op", ratio(float64(c["hostmem_stores_total"]), ops))
	hits, misses := float64(c["bufpool_hits_total"]), float64(c["bufpool_misses_total"])
	r.set("bufpool.hit_ratio", ratio(hits, hits+misses))
	r.set("bufpool.discards_per_op", ratio(float64(c["bufpool_put_rejects_total"]), ops))
	r.samples["layer_ops"] = p.m.headOps
}

// layersFromSpans sets the per-layer metrics of the traced pass: busy and
// wait times and self time per headline round.
func layersFromSpans(r *run, stats []roundStats, headline string) {
	self := layerMedians(stats, headline)
	r.set("core.self_ms", self["core"])
	r.set("transport.self_ms", self["transport"])
	r.set("cluster.self_ms", self["cluster"])
	r.set("transport.send_busy_ms", nameMedian(stats, headline, "transport.send"))
	r.set("transport.recv_wait_ms", nameMedian(stats, headline, "transport.recv"))
	r.set("cluster.store_busy_ms", nameMedian(stats, headline, "cluster.store"))
	r.set("cluster.load_busy_ms", nameMedian(stats, headline, "cluster.load"))
	var spans, rounds int
	for _, st := range stats {
		if st.root.name == headline && st.root.layer == "core" {
			spans += st.leaves + 1
			rounds++
		}
	}
	r.set("trace.spans_per_op", ratio(float64(spans), float64(rounds)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
