package core

import (
	"context"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"

	"eccheck/internal/cluster"
	"eccheck/internal/obs"
	"eccheck/internal/statedict"
)

func incrementalRig(t *testing.T) *testRig {
	t.Helper()
	return newRig(t, 4, 2, 2, 2, func(cfg *Config) {
		cfg.IncrementalCache = true
		cfg.RemotePersistEvery = -1
	})
}

// mutateSomeTensors flips a byte in the first tensor of the given ranks
// and bumps the iteration counter everywhere.
func mutateSomeTensors(dicts []*statedict.StateDict, ranks []int, iter int64) []*statedict.StateDict {
	out := make([]*statedict.StateDict, len(dicts))
	for rank, sd := range dicts {
		out[rank] = sd.Clone()
		out[rank].SetMeta("iteration", statedict.Int(iter))
	}
	for _, rank := range ranks {
		entries := out[rank].TensorEntries()
		entries[0].Tensor.Data()[0] ^= 0xA5
	}
	return out
}

func TestIncrementalRequiresCacheConfig(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	if _, err := rig.ckpt.SaveIncremental(context.Background(), rig.dicts); err == nil {
		t.Error("incremental without cache config: want error")
	}
}

func TestIncrementalFirstSaveFallsBackToFull(t *testing.T) {
	rig := incrementalRig(t)
	rep, err := rig.ckpt.SaveIncremental(context.Background(), rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full {
		t.Error("first incremental save must fall back to full")
	}
	if rep.Version != 1 {
		t.Errorf("version %d", rep.Version)
	}
}

func TestIncrementalUpdateRecoversExactly(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}

	// Change two workers' tensors; everyone's metadata changes.
	newDicts := mutateSomeTensors(rig.dicts, []int{1, 6}, 101)
	rep, err := rig.ckpt.SaveIncremental(ctx, newDicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full {
		t.Fatal("second save should be incremental")
	}
	if rep.Version != 2 {
		t.Errorf("version %d", rep.Version)
	}
	if rep.ChangedBuffers == 0 || rep.ChangedBuffers >= rep.TotalBuffers {
		t.Errorf("changed %d of %d buffers; want a sparse update",
			rep.ChangedBuffers, rep.TotalBuffers)
	}

	// The coded checkpoint must be internally consistent after the patch.
	vrep, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(vrep.CorruptSegments) != 0 {
		t.Fatalf("incremental update corrupted segments %v", vrep.CorruptSegments)
	}

	// Recovery after the worst failure returns the NEW state.
	for _, node := range rig.ckpt.Plan().DataNodes {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 2 {
		t.Errorf("recovered version %d", lrep.Version)
	}
	dictsEqual(t, newDicts, got)
}

func TestIncrementalNoChangeShipsNothing(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	rep, err := rig.ckpt.SaveIncremental(ctx, rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full {
		t.Fatal("should be incremental")
	}
	if rep.ChangedBuffers != 0 {
		t.Errorf("identical state changed %d buffers", rep.ChangedBuffers)
	}
	// Still recoverable at the new version.
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 2 {
		t.Errorf("version %d", lrep.Version)
	}
	dictsEqual(t, rig.dicts, got)
}

func TestIncrementalAfterRecoveryFallsBackToFull(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	victim := rig.ckpt.Plan().ParityNodes[0]
	if err := rig.clus.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rig.ckpt.Load(ctx); err != nil {
		t.Fatal(err)
	}
	// The replaced node's packet cache is gone: incremental must detect
	// it and run a full save.
	newDicts := mutateSomeTensors(rig.dicts, []int{0}, 55)
	rep, err := rig.ckpt.SaveIncremental(ctx, newDicts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full {
		t.Error("missing caches after replacement: want full-save fallback")
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, newDicts, got)
}

func TestIncrementalChainOfUpdates(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	current := rig.dicts
	for step := 0; step < 5; step++ {
		current = mutateSomeTensors(current, []int{step % 8, (step * 3) % 8}, int64(200+step))
		rep, err := rig.ckpt.SaveIncremental(ctx, current)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if rep.Full {
			t.Fatalf("step %d fell back to full", step)
		}
	}
	// Fail a data node and a parity node, then recover the final state.
	plan := rig.ckpt.Plan()
	for _, node := range []int{plan.DataNodes[1], plan.ParityNodes[0]} {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 6 {
		t.Errorf("recovered version %d, want 6", lrep.Version)
	}
	dictsEqual(t, current, got)
}

// flipPacketByte flips the byte at packet offset off of the dict's tensor
// payload (its tensors back to back, in key order).
func flipPacketByte(t *testing.T, sd *statedict.StateDict, off int) {
	t.Helper()
	for _, e := range sd.TensorEntries() {
		data := e.Tensor.Data()
		if off < len(data) {
			data[off] ^= 0xFF
			return
		}
		off -= len(data)
	}
	t.Fatalf("offset past the tensor payload")
}

// TestIncrementalWindowEdges mutates the bytes where the in-place diff can
// go wrong — a window's first and last byte, a tensor boundary inside a
// window, the last byte before the zero padding — and checks that exactly
// their windows ship and the decoded checkpoint is byte-exact.
func TestIncrementalWindowEdges(t *testing.T) {
	const bufSize = 4 << 10
	rig := newRig(t, 4, 2, 2, 2, func(cfg *Config) {
		cfg.IncrementalCache = true
		cfg.RemotePersistEvery = -1
		cfg.BufferSize = bufSize
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}

	// The rank with the smallest payload: its packet ends in zero padding.
	rank, packet := 0, 0
	for r, sd := range rig.dicts {
		packet = max(packet, sd.TensorBytes())
		if sd.TensorBytes() < rig.dicts[rank].TensorBytes() {
			rank = r
		}
	}
	packet = rig.ckpt.Code().ChunkAlign(packet)
	n := rig.dicts[rank].TensorBytes()
	if n >= packet || n < 4*bufSize {
		t.Fatalf("rank %d payload %d: want padding before the %d-byte packet and at least 4 windows", rank, n, packet)
	}
	boundary := 0
	for _, e := range rig.dicts[rank].TensorEntries() {
		boundary += e.Tensor.NumBytes()
		if boundary%bufSize != 0 && boundary/bufSize > 1 && boundary < n {
			break
		}
	}
	if boundary%bufSize == 0 || boundary >= n {
		t.Fatalf("rank %d has no tensor boundary inside a window", rank)
	}

	next := mutateSomeTensors(rig.dicts, nil, 90)
	windows := map[int]bool{}
	for _, off := range []int{bufSize, 2*bufSize - 1, boundary - 1, boundary, n - 1} {
		flipPacketByte(t, next[rank], off)
		windows[off/bufSize] = true
	}
	rep, err := rig.ckpt.SaveIncremental(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full {
		t.Fatal("should be incremental")
	}
	if rep.ChangedBuffers != len(windows) {
		t.Errorf("changed %d buffers, want %d (windows %v)", rep.ChangedBuffers, len(windows), windows)
	}
	vrep, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(vrep.CorruptSegments) != 0 {
		t.Fatalf("incremental update corrupted segments %v", vrep.CorruptSegments)
	}
	// The refreshed cache must be the new packet, zero padding included:
	// the same state again finds nothing dirty.
	rep, err = rig.ckpt.SaveIncremental(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChangedBuffers != 0 {
		t.Errorf("repeated state changed %d buffers, want 0", rep.ChangedBuffers)
	}

	plan := rig.ckpt.Plan()
	victim := plan.DataNodes[plan.DataGroupOf[rank]]
	if err := rig.clus.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Workflow != "decode" {
		t.Errorf("workflow %q, want decode", lrep.Workflow)
	}
	dictsEqual(t, next, got)
}

// TestIncrementalAbortedRoundKeepsCommittedVersion aborts an incremental
// round on a corrupt packet cache and checks that nothing of it lands:
// the committed version still loads, and the messages it left in flight
// are never applied to a later round.
func TestIncrementalAbortedRoundKeepsCommittedVersion(t *testing.T) {
	reg := obs.NewRegistry()
	rig := newRig(t, 4, 2, 2, 2, func(cfg *Config) {
		cfg.IncrementalCache = true
		cfg.RemotePersistEvery = -1
		cfg.Metrics = reg
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	plan := rig.ckpt.Plan()
	g := rig.topo.GPUsPerNode()
	// The victim's last worker, so its first one has already shipped.
	victim := plan.DataNodes[0]
	if err := rig.clus.Corrupt(victim, keyOwnPacket(victim*g+g-1), 100); err != nil {
		t.Fatal(err)
	}
	every := make([]int, len(rig.dicts))
	for r := range every {
		every[r] = r
	}
	if _, err := rig.ckpt.SaveIncremental(ctx, mutateSomeTensors(rig.dicts, every, 90)); !errors.Is(err, cluster.ErrChecksum) {
		t.Fatalf("incremental save over a corrupt cache: err %v, want ErrChecksum", err)
	}
	if v := rig.ckpt.Version(); v != 1 {
		t.Fatalf("aborted round moved the version to %d", v)
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 1 {
		t.Errorf("loaded version %d, want 1", lrep.Version)
	}
	dictsEqual(t, rig.dicts, got)
	vrep, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(vrep.CorruptSegments) != 0 {
		t.Fatalf("aborted round corrupted segments %v", vrep.CorruptSegments)
	}

	// Move on with state unlike the aborted round's.
	full := mutateSomeTensors(rig.dicts, []int{2, 5}, 91)
	if _, err := rig.ckpt.Save(ctx, full); err != nil {
		t.Fatal(err)
	}
	next := mutateSomeTensors(full, []int{3, 4}, 92)
	rep, err := rig.ckpt.SaveIncremental(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full || rep.Version != 3 {
		t.Fatalf("full=%v version=%d, want an incremental v3", rep.Full, rep.Version)
	}
	t.Logf("stale messages dropped: %d", reg.Counter("transport_stale_dropped_total").Value())

	for _, node := range []int{plan.DataNodes[0], plan.ParityNodes[1]} {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, lrep, err = rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 3 {
		t.Errorf("loaded version %d, want 3", lrep.Version)
	}
	dictsEqual(t, next, got)
}

// firstStoreWatch records, at the first host-memory write after it is
// armed, how many transport operations had completed.
type firstStoreWatch struct {
	HostStore
	ops   func() int64
	armed atomic.Bool
	atOps atomic.Int64
}

func (s *firstStoreWatch) Store(node int, key string, blob []byte) error {
	if s.armed.CompareAndSwap(true, false) {
		s.atOps.Store(s.ops())
	}
	return s.HostStore.Store(node, key, blob)
}

// sumPeerCounter sums a transport counter over every (node, peer) pair.
func sumPeerCounter(reg *obs.Registry, name string, nodes int) int64 {
	var total int64
	for node := 0; node < nodes; node++ {
		for peer := 0; peer < nodes; peer++ {
			if peer != node {
				total += reg.Counter(name, obs.LInt("node", node), obs.LInt("peer", peer)).Value()
			}
		}
	}
	return total
}

// TestIncrementalStoresOnlyAfterExchange pins the commit point: an
// incremental round writes host memory only after every node's last
// message, so no node commits while a peer may still abort the round.
func TestIncrementalStoresOnlyAfterExchange(t *testing.T) {
	reg := obs.NewRegistry()
	ops := func() int64 {
		return sumPeerCounter(reg, "transport_sends_total", 4) + sumPeerCounter(reg, "transport_recvs_total", 4)
	}
	watch := &firstStoreWatch{ops: ops}
	rig, _ := newWrappedRig(t, 4, 2, 2, 2, func(hs HostStore) HostStore {
		watch.HostStore = hs
		return watch
	}, func(cfg *Config) {
		cfg.IncrementalCache = true
		cfg.RemotePersistEvery = -1
		cfg.Metrics = reg
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	every := make([]int, len(rig.dicts))
	for r := range every {
		every[r] = r
	}
	watch.armed.Store(true)
	rep, err := rig.ckpt.SaveIncremental(ctx, mutateSomeTensors(rig.dicts, every, 90))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full {
		t.Fatal("should be incremental")
	}
	if watch.armed.Load() {
		t.Fatal("the round wrote nothing")
	}
	if at, end := watch.atOps.Load(), ops(); at != end {
		t.Errorf("first write after %d of the round's transport operations, want all %d done", at, end)
	}
}

// TestRecvStampedDropsStaleRejectsAhead pins the stamp rules: earlier
// rounds' messages are dropped and counted, a later round's is a typed
// error, and a current message of the wrong length or with no stamp is
// rejected.
func TestRecvStampedDropsStaleRejectsAhead(t *testing.T) {
	reg := obs.NewRegistry()
	rig := newRig(t, 4, 2, 2, 2, func(cfg *Config) { cfg.Metrics = reg })
	ctx := context.Background()
	src, err := rig.net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := rig.net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	msg := func(stamp uint64, n int) []byte {
		b := make([]byte, stampLen+n)
		binary.LittleEndian.PutUint64(b, stamp)
		return b
	}
	tag := tagDelta(2, -1)
	for _, m := range [][]byte{msg(3, 16), msg(4, 99), msg(5, 16), msg(7, 16), msg(5, 15), {1, 2}} {
		if err := src.Send(ctx, 0, tag, m); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() ([]byte, error) { return rig.ckpt.recvStamped(ctx, dst, 1, tag, 5, stampLen+16) }
	got, err := recv()
	if err != nil {
		t.Fatal(err)
	}
	if s := binary.LittleEndian.Uint64(got); s != 5 || len(got) != stampLen+16 {
		t.Errorf("got stamp %d, %d bytes; want the stamp-5 message", s, len(got))
	}
	if dropped := reg.Counter("transport_stale_dropped_total").Value(); dropped != 2 {
		t.Errorf("dropped %d stale messages, want 2", dropped)
	}
	if _, err := recv(); !errors.Is(err, ErrStampAhead) {
		t.Errorf("later round's message: err %v, want ErrStampAhead", err)
	}
	if _, err := recv(); err == nil {
		t.Error("short message: want a length error")
	}
	if _, err := recv(); err == nil {
		t.Error("message without a stamp: want an error")
	}
}

// TestIncrementalExactTraffic counts every message of an incremental
// round: per local worker one bitmap to each remote destination (its data
// node and every parity node) plus one slice per dirty window to each,
// and each worker's two small components to every peer. Nothing else.
func TestIncrementalExactTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	rig := newRig(t, 4, 2, 2, 2, func(cfg *Config) {
		cfg.IncrementalCache = true
		cfg.RemotePersistEvery = -1
		cfg.Metrics = reg
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	nodes, g, world := rig.topo.Nodes(), rig.topo.GPUsPerNode(), rig.topo.World()
	sends := func() int64 { return sumPeerCounter(reg, "transport_sends_total", nodes) }
	plan := rig.ckpt.Plan()
	want := func(dirty map[int]int) int64 {
		total := 2 * world * (nodes - 1)
		for w := 0; w < world; w++ {
			dests := 0
			if plan.DataNodes[plan.DataGroupOf[w]] != w/g {
				dests++
			}
			for _, p := range plan.ParityNodes {
				if p != w/g {
					dests++
				}
			}
			total += dests * (1 + dirty[w])
		}
		return int64(total)
	}

	for _, tc := range []struct {
		name  string
		dicts []*statedict.StateDict
		dirty map[int]int
	}{
		{"unchanged", rig.dicts, nil},
		// mutateSomeTensors flips one byte per rank: one dirty window each.
		{"two ranks", mutateSomeTensors(rig.dicts, []int{1, 6}, 88), map[int]int{1: 1, 6: 1}},
	} {
		before := sends()
		rep, err := rig.ckpt.SaveIncremental(ctx, tc.dicts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Full {
			t.Fatalf("%s: fell back to a full save", tc.name)
		}
		if got, w := sends()-before, want(tc.dirty); got != w {
			t.Errorf("%s: %d sends, want %d", tc.name, got, w)
		}
	}
}

// TestIncrementalZeroChangeAllocsFlat checks that an unchanged round's
// allocations do not grow with the window count: 4 KiB windows give the
// same packets 16x the windows of 64 KiB ones.
func TestIncrementalZeroChangeAllocsFlat(t *testing.T) {
	ctx := context.Background()
	allocs := func(bufSize int) float64 {
		rig := newRig(t, 4, 2, 2, 2, func(cfg *Config) {
			cfg.IncrementalCache = true
			cfg.RemotePersistEvery = -1
			cfg.BufferSize = bufSize
		})
		if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
			t.Fatal(err)
		}
		round := func() {
			rep, err := rig.ckpt.SaveIncremental(ctx, rig.dicts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Full || rep.ChangedBuffers != 0 {
				t.Fatalf("full=%v changed=%d, want an empty incremental round", rep.Full, rep.ChangedBuffers)
			}
		}
		round() // warm the buffer pool
		return testing.AllocsPerRun(5, round)
	}
	small, large := allocs(4<<10), allocs(64<<10)
	t.Logf("allocs per unchanged round: %.0f at 4 KiB windows, %.0f at 64 KiB", small, large)
	if small > 1.1*large || large > 1.1*small {
		t.Errorf("allocs per unchanged round differ by more than 10%%: %.0f at 4 KiB, %.0f at 64 KiB", small, large)
	}
}
