package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eccheck/internal/daemon"
)

// The daemon workload boots the real eccheckd on loopback, registers two
// jobs with the default JobSpec (flight recorder and health on) and the
// remote tier off, and drives them with two closed-loop HTTP clients, one
// per job, each sending 3 saves for every full load.
//
// Its end-to-end metrics are client-observed: a save's stall and commit
// are both the HTTP save latency (the caller is blocked for the whole
// round), loads are full HTTP loads, and allocation and heap figures are
// the eccheckd process's own, read from its /debug/pprof/heap.

const daemonClients = 2

// daemonProc is a running eccheckd.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	out  chan struct{} // closed when stdout is drained
}

func bootDaemon(bin string) (*daemonProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-max-saves", "1", "-log-level", "warn", "-drain-timeout", "60s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start eccheckd: %w", err)
	}
	d := &daemonProc{cmd: cmd, out: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.out)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "eccheckd listening on "); ok {
				addr <- a
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			_ = cmd.Wait()
			return nil, errors.New("eccheckd exited before listening")
		}
		d.base = "http://" + a
		return d, nil
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-d.out
		_ = cmd.Wait()
		return nil, errors.New("eccheckd did not announce its address")
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that has not exited after 60s is killed.
func (d *daemonProc) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-d.out
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return errors.New("eccheckd did not drain within 60s")
	}
}

// api is a small HTTP client that also reports response sizes.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(base string) *api {
	return &api{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients + 1}}}
}

// call issues one request and decodes a 2xx JSON body into out; it
// returns the client-observed latency and the response size.
func (a *api) call(ctx context.Context, method, path string, body, out any) (time.Duration, int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, len(raw), err
	}
	if resp.StatusCode/100 != 2 {
		return lat, len(raw), fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return lat, len(raw), fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return lat, len(raw), nil
}

// heapStats reads MemStats fields from the daemon's heap profile header;
// with gc set, eccheckd runs a garbage collection before reading them.
func (a *api) heapStats(ctx context.Context, gc bool) (map[string]uint64, error) {
	url := a.base + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, k := range []string{"Mallocs", "TotalAlloc", "HeapAlloc"} {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("daemon heap profile has no %s", k)
		}
	}
	return out, nil
}

// heapPollPeriod is how often the timed window samples eccheckd's heap for
// peak_heap_mb. A poll allocates inside eccheckd (the profile is copied
// and formatted) and stops its goroutines briefly, so polls are rare and
// their cost is calibrated and taken off the allocation deltas.
const heapPollPeriod = time.Second

// heapPollCalibration is how many polls heapPollCost averages over.
const heapPollCalibration = 16

// heapPollCost measures what one heap read allocates inside an idle
// eccheckd: the delta between two reads holds exactly one read's
// allocations (the part after the first read's MemStats snapshot and the
// part before the second's).
func heapPollCost(ctx context.Context, a *api) (bytes, mallocs float64, err error) {
	first, err := a.heapStats(ctx, true)
	if err != nil {
		return 0, 0, err
	}
	last := first
	for i := 0; i < heapPollCalibration; i++ {
		if last, err = a.heapStats(ctx, false); err != nil {
			return 0, 0, err
		}
	}
	n := float64(heapPollCalibration)
	return float64(last["TotalAlloc"]-first["TotalAlloc"]) / n, float64(last["Mallocs"]-first["Mallocs"]) / n, nil
}

// daemonJob is one registered job and its client-side checkpoint position.
type daemonJob struct {
	id      string
	step    int   // the training step the last committed checkpoint captured
	payload int64 // tensor bytes one save checkpoints
}

// setupDaemon boots eccheckd, registers the jobs and commits one save
// each; the returned duration is the benchmark's set-up time.
func setupDaemon(ctx context.Context, o options) (*daemonProc, *api, []*daemonJob, time.Duration, error) {
	t0 := time.Now()
	d, err := bootDaemon(o.eccheckd)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	a := newAPI(d.base)
	jobs := make([]*daemonJob, daemonClients)
	for i := range jobs {
		spec := daemon.JobSpec{ID: fmt.Sprintf("bench-%d", i), DisableRemote: true}
		if o.tiny {
			spec.Scale = 128
			spec.BufferBytes = 16 << 10
		}
		var st daemon.JobStatus
		if _, _, err = a.call(ctx, http.MethodPost, "/v1/jobs", spec, &st); err == nil {
			var resp daemon.SaveResponse
			_, _, err = a.call(ctx, http.MethodPost, "/v1/jobs/"+spec.ID+"/save", daemon.SaveRequest{Steps: 1}, &resp)
			// The memory reservation is the payload expanded by (k+m)/k.
			jobs[i] = &daemonJob{id: spec.ID, step: resp.Job.CheckpointStep,
				payload: st.MemoryReservedBytes * int64(st.K) / int64(st.K+st.M)}
		}
		if err != nil {
			_ = d.stop()
			return nil, nil, nil, 0, fmt.Errorf("set up job %d: %w", i, err)
		}
	}
	return d, a, jobs, time.Since(t0), nil
}

// daemonMeasure collects one pass's client-side samples.
type daemonMeasure struct {
	mu                     sync.Mutex
	save, load             samples
	slotWait, server, over samples
	respBytes              samples
	savePhases, loadPhases map[string]samples
	lag                    samples
	fetched                float64
	loads                  int
}

func newDaemonMeasure() *daemonMeasure {
	return &daemonMeasure{savePhases: map[string]samples{}, loadPhases: map[string]samples{}}
}

// client drives one job in a closed loop until the deadline: 3 saves of
// a seeded number of steps, then a full load whose verified step must be
// the last committed one.
func daemonClient(ctx context.Context, a *api, job *daemonJob, rng *rand.Rand, deadline time.Time,
	rec *recorder, m *daemonMeasure, r *run, rmu *sync.Mutex) {
	report := func(err error) {
		rmu.Lock()
		r.op(err)
		rmu.Unlock()
	}
	check := func(ok bool, format string, args ...any) {
		rmu.Lock()
		r.check(ok, format, args...)
		rmu.Unlock()
	}
	for i := 0; time.Now().Before(deadline); i++ {
		isLoad := i%4 == 3
		var root int64
		if rec != nil {
			name := "save"
			if isLoad {
				name = "load"
			}
			root = rec.open("daemon", name)
		}
		if isLoad {
			var resp daemon.LoadResponse
			lat, _, err := a.call(ctx, http.MethodPost, "/v1/jobs/"+job.id+"/load", daemon.LoadRequest{}, &resp)
			if rec != nil {
				rec.close(root)
			}
			report(err)
			if err != nil {
				continue
			}
			check(resp.VerifiedStep == job.step, "job %s: load verified step %d, want %d", job.id, resp.VerifiedStep, job.step)
			m.mu.Lock()
			m.load = append(m.load, ms(lat))
			if rep := resp.Report; rep != nil {
				for ph, d := range rep.Phases {
					m.loadPhases[ph] = append(m.loadPhases[ph], ms(d))
				}
				m.fetched += float64(rep.BytesFetched)
				m.loads++
			}
			m.mu.Unlock()
			continue
		}
		steps := 1 + rng.IntN(3)
		var resp daemon.SaveResponse
		lat, size, err := a.call(ctx, http.MethodPost, "/v1/jobs/"+job.id+"/save", daemon.SaveRequest{Steps: steps}, &resp)
		if rec != nil {
			rec.close(root)
		}
		report(err)
		if err != nil {
			continue
		}
		// A load rolls the job back to its checkpoint, so the next
		// checkpoint is the committed step plus this save's steps.
		job.step += steps
		check(resp.Job.CheckpointStep == job.step, "job %s: saved step %d, want %d", job.id, resp.Job.CheckpointStep, job.step)
		m.mu.Lock()
		m.save = append(m.save, ms(lat))
		m.respBytes = append(m.respBytes, float64(size))
		if rep := resp.Report; rep != nil {
			m.server = append(m.server, ms(rep.Elapsed))
			m.over = append(m.over, ms(lat-rep.Elapsed-resp.SlotWait))
			for ph, d := range rep.Phases {
				m.savePhases[ph] = append(m.savePhases[ph], ms(d))
			}
			m.lag = append(m.lag, ms(rep.StragglerLag))
		}
		m.slotWait = append(m.slotWait, ms(resp.SlotWait))
		m.mu.Unlock()
	}
}

// drive runs both clients for seconds and returns the measured wall time.
func drive(ctx context.Context, a *api, jobs []*daemonJob, o options, pass uint64, seconds float64,
	rec *recorder, m *daemonMeasure, r *run) time.Duration {
	var rmu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c, job := range jobs {
		rng := rand.New(rand.NewPCG(o.seed, pass<<8|uint64(c)))
		wg.Add(1)
		go func(job *daemonJob) {
			defer wg.Done()
			daemonClient(ctx, a, job, rng, deadline, rec, m, r, &rmu)
		}(job)
	}
	wg.Wait()
	return time.Since(start)
}

// checkJobs requires every job's server-side failure counter to be 0.
func checkJobs(ctx context.Context, a *api, jobs []*daemonJob, r *run) {
	for _, job := range jobs {
		var st daemon.JobStatus
		_, _, err := a.call(ctx, http.MethodGet, "/v1/jobs/"+job.id, nil, &st)
		r.op(err)
		if err == nil {
			r.check(st.Failures == 0, "job %s: %d failed rounds (%s)", job.id, st.Failures, st.LastError)
		}
	}
}

func runDaemon(o options, r *run) error {
	ctx := context.Background()
	setups := 5
	if o.tiny || o.trace {
		setups = 1
	}
	var setup samples
	var d *daemonProc
	var a *api
	var jobs []*daemonJob
	var err error
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var dur time.Duration
		d, a, jobs, dur, err = setupDaemon(ctx, o)
		if err != nil {
			return err
		}
		setup = append(setup, dur.Seconds())
	}
	defer func() { _ = d.stop() }()
	payload := jobs[0].payload
	r.info["payload_bytes_per_op"] = payload

	// Warm-up: one save round per job before measuring.
	drive(ctx, a, jobs, o, 0, 0.3, nil, newDaemonMeasure(), r)

	if o.trace {
		return traceDaemon(ctx, a, jobs, o, r)
	}
	pollBytes, pollMallocs, err := heapPollCost(ctx, a)
	if err != nil {
		return err
	}
	before, err := a.heapStats(ctx, true)
	if err != nil {
		return err
	}
	type polled struct {
		peak  uint64
		polls int
	}
	stopPoll := make(chan struct{})
	pollDone := make(chan polled)
	go func() {
		p := polled{peak: before["HeapAlloc"]}
		t := time.NewTicker(heapPollPeriod)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				pollDone <- p
				return
			case <-t.C:
				p.polls++
				if hs, err := a.heapStats(ctx, false); err == nil && hs["HeapAlloc"] > p.peak {
					p.peak = hs["HeapAlloc"]
				}
			}
		}
	}()
	m := newDaemonMeasure()
	wall := drive(ctx, a, jobs, o, 1, o.seconds, nil, m, r)
	close(stopPoll)
	poll := <-pollDone
	after, err := a.heapStats(ctx, false)
	if err != nil {
		return err
	}
	checkJobs(ctx, a, jobs, r)

	// The deltas between the before and after reads hold the polls and
	// the after read itself; their calibrated cost is taken off.
	reads := float64(poll.polls + 1)
	allocBytes := float64(after["TotalAlloc"]-before["TotalAlloc"]) - reads*pollBytes
	mallocs := float64(after["Mallocs"]-before["Mallocs"]) - reads*pollMallocs
	r.info["heap_polls"] = poll.polls
	r.info["heap_poll_cost"] = map[string]float64{"bytes": pollBytes, "mallocs": pollMallocs}
	ops := float64(len(m.save) + len(m.load))
	r.set("setup_s", setup.quantile(0.5))
	r.samples["setup_s"] = len(setup)
	r.info["setup_runs_s"] = setup
	r.set("save_stall_ms_p50", m.save.quantile(0.5))
	r.setDist("save_commit_ms", m.save, 50, 90)
	r.set("save_gb_s", ratio(float64(payload)*float64(len(m.save)), m.save.sum()/1e3)/1e9)
	r.set("saves_per_s", float64(len(m.save))/wall.Seconds())
	r.setDist("load_ms", m.load, 50, 90)
	r.set("alloc_mb_per_op", ratio(allocBytes/1e6, ops))
	r.set("allocs_per_op", ratio(mallocs, ops))
	r.set("peak_heap_mb", float64(poll.peak)/1e6)
	r.info["measured_s"] = wall.Seconds()
	return nil
}

// traceDaemon runs an untraced half for report attribution and the
// overhead reference, then a half with a daemon-layer span around every
// HTTP call, then the codec rows on the jobs' shape.
func traceDaemon(ctx context.Context, a *api, jobs []*daemonJob, o options, r *run) error {
	half := o.seconds / 2
	plain := newDaemonMeasure()
	drive(ctx, a, jobs, o, 1, half, nil, plain, r)
	rec := newRecorder()
	traced := newDaemonMeasure()
	drive(ctx, a, jobs, o, 2, half, rec, traced, r)
	checkJobs(ctx, a, jobs, r)

	payload := jobs[0].payload
	for _, ph := range []string{"offload", "serialize", "encode", "xor", "stage", "p2p", "barrier", "straggle", "promote"} {
		r.set("core.save."+ph+"_ms", plain.savePhases[ph].quantile(0.5))
	}
	r.set("core.save.straggler_lag_ms", plain.lag.quantile(0.5))
	for _, ph := range []string{"scan", "fetch", "rebuild", "smallsync", "redistribute"} {
		r.set("core.load."+ph+"_ms", plain.loadPhases[ph].quantile(0.5))
	}
	r.set("core.load.fetched_bytes_per_payload_byte", ratio(plain.fetched, float64(payload)*float64(plain.loads)))
	// The engine runs inside eccheckd, out of reach of the benchmark's
	// decorators and counters.
	for _, name := range []string{"core.incremental.changed_buffer_frac", "core.self_ms",
		"transport.send_bytes_per_payload_byte", "transport.sends_per_op", "transport.errors_per_op",
		"transport.send_busy_ms", "transport.recv_wait_ms", "transport.self_ms",
		"cluster.store_bytes_per_payload_byte", "cluster.stores_per_op", "cluster.store_busy_ms",
		"cluster.load_busy_ms", "cluster.self_ms", "bufpool.hit_ratio", "bufpool.discards_per_op"} {
		r.set(name, 0)
	}
	r.set("daemon.slot_wait_ms_p50", plain.slotWait.quantile(0.5))
	r.set("daemon.server_round_ms_p50", plain.server.quantile(0.5))
	r.set("daemon.http_overhead_ms_p50", plain.over.quantile(0.5))
	r.set("daemon.response_kb", plain.respBytes.quantile(0.5)/1e3)
	r.samples["daemon.save"] = len(plain.save)

	k, m, shard := 2, 2, 256<<10
	if o.tiny {
		shard = 16 << 10
	}
	microVals, err := runMicro(rec, microShape{k: k, m: m, shard: shard}, o)
	if err != nil {
		return err
	}
	for name, v := range microVals {
		r.set(name, v)
	}
	stats := rec.attribute()
	r.set("daemon.self_ms", layerMedians(stats, "save")["daemon"])
	r.set("trace.overhead_ms", traced.save.quantile(0.5)-plain.save.quantile(0.5))
	r.set("trace.spans_per_op", 1)
	r.samples["trace.untraced_save"] = len(plain.save)
	r.samples["trace.traced_save"] = len(traced.save)
	path, err := writeTraceFiles(o.outDir, fmt.Sprintf("daemon-seed%d", o.seed), rec, stats)
	if err != nil {
		return err
	}
	r.info["trace_file"] = path
	return nil
}
