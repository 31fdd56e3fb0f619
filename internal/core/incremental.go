package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"eccheck/internal/gf"
	"eccheck/internal/statedict"
	"eccheck/internal/transport"
)

// Incremental checkpointing exploits the linearity of the erasure code:
// if a worker's packet changes by Δ, every coded quantity updates by a
// scalar multiple of Δ — the data chunk's segment by Δ itself and parity
// chunk i's segment by E[k+i][j]·Δ. Workers therefore cache their previous
// packets, diff buffer-by-buffer against the new state, and ship only the
// changed slices. Between optimizer steps most large language model state
// (optimizer moments in particular) changes everywhere, but sparse or
// partially frozen training regimes change a small fraction, and the
// update volume becomes proportional to the changed fraction — the idea
// Check-N-Run applies to recommendation models, here generalised to coded
// checkpoints.
//
// Wire format. Every (rank, destination) pair is one stream: a dirty
// bitmap with one bit per buffer window, then one slice per set bit — Δ
// to the data node, coefficient·Δ to each parity node. Small components
// travel on their own incremental tags. Every message leads with the
// round stamp (stampLen bytes), so a receiver drops what an aborted
// earlier round left in its mailboxes instead of applying it.

// keyOwnPacket caches a worker's latest packet on its own node.
func keyOwnPacket(rank int) string { return fmt.Sprintf("own/%d", rank) }

// Incremental message tags, disjoint from the full save's.
func tagIncMeta(rank int) string { return fmt.Sprintf("um/%d", rank) }
func tagIncKeys(rank int) string { return fmt.Sprintf("uk/%d", rank) }

// tagDelta names rank's delta stream to its data node (parity < 0) or to
// the parity node of that index.
func tagDelta(rank, parity int) string {
	if parity < 0 {
		return fmt.Sprintf("ud/d/%d", rank)
	}
	return fmt.Sprintf("ud/p%d/%d", parity, rank)
}

// stampLen is the size of the little-endian round stamp that prefixes
// every incremental message. Eight bytes keep the payload behind it
// word-aligned for the XOR kernels.
const stampLen = 8

// ErrStampAhead marks an incremental message stamped for a later round
// than the receiver's: the peers disagree about which round is running.
var ErrStampAhead = errors.New("core: incremental message stamped for a later round")

// IncrementalReport summarises an incremental save.
type IncrementalReport struct {
	// Version is the new checkpoint version.
	Version int
	// Full reports that the call fell back to a full save (first save,
	// packet-size change, or missing caches after a replacement).
	Full bool
	// ChangedBuffers and TotalBuffers count the diffed slices across all
	// workers.
	ChangedBuffers int
	TotalBuffers   int
	// Elapsed is the wall time of the round.
	Elapsed time.Duration
}

// SaveIncremental checkpoints by updating the previous coded checkpoint
// with per-buffer deltas. It requires Config.IncrementalCache; when no
// usable previous state exists it transparently performs a full Save.
// Like Save it refuses to run concurrently with another save round:
// ErrSaveInFlight when one is already draining.
func (c *Checkpointer) SaveIncremental(ctx context.Context, dicts []*statedict.StateDict) (*IncrementalReport, error) {
	started := time.Now()
	if !c.cfg.IncrementalCache {
		return nil, fmt.Errorf("core: incremental saves need Config.IncrementalCache")
	}
	world := c.cfg.Topo.World()
	if len(dicts) != world {
		return nil, fmt.Errorf("core: got %d state dicts, want world size %d", len(dicts), world)
	}

	// Claim the save slot before touching shared checkpoint state; the
	// handle exists so Close can cancel this round too.
	h := newSaveHandle()
	if err := c.acquireSave(ctx, false, h); err != nil {
		return nil, err
	}
	version := int(c.version.Load()) + 1
	c.roundStart(OpIncremental, version)
	h.onFinal = func(_ *SaveReport, err error) { c.roundEnd(OpIncremental, version, err) }
	rep, err := c.saveIncrementalLocked(ctx, h, started, dicts)
	c.releaseSave(h)
	h.complete(nil, err)
	return rep, err
}

// saveIncrementalLocked is SaveIncremental holding the save slot via h.
func (c *Checkpointer) saveIncrementalLocked(ctx context.Context, h *SaveHandle, started time.Time, dicts []*statedict.StateDict) (*IncrementalReport, error) {
	for node := 0; node < c.cfg.Topo.Nodes(); node++ {
		if !c.clus.Alive(node) {
			return nil, fmt.Errorf("core: cannot checkpoint with node %d failed", node)
		}
	}

	// Usability check: a previous save at the same packet size, with every
	// worker's cache present.
	usable := c.version.Load() > 0
	packetBytes := 0
	for _, sd := range dicts {
		if b := sd.TensorBytes(); b > packetBytes {
			packetBytes = b
		}
	}
	packetBytes = c.code.ChunkAlign(packetBytes)
	if usable {
		for node := 0; usable && node < c.cfg.Topo.Nodes(); node++ {
			blob, err := c.fetch(node, keyManifest())
			if err != nil {
				usable = false
				break
			}
			v, p, _, err := parseManifest(blob)
			if err != nil || int64(v) != c.version.Load() || p != packetBytes {
				usable = false
				break
			}
			g := c.cfg.Topo.GPUsPerNode()
			for w := node * g; w < (node+1)*g; w++ {
				if !c.clus.Has(node, keyOwnPacket(w)) {
					usable = false
					break
				}
			}
		}
	}
	if !usable {
		// Full-save fallback: this round already holds the save slot, so it
		// hands it to startSave rather than going through Save (which would
		// see the slot occupied and fail with ErrSaveInFlight).
		fh, err := c.startSave(ctx, dicts, saveMode{guardHeld: true})
		if err != nil {
			return nil, err
		}
		rep, err := fh.Wait(ctx)
		if err != nil {
			return nil, err
		}
		return &IncrementalReport{Version: rep.Version, Full: true, Elapsed: time.Since(started)}, nil
	}

	version := int(c.version.Load()) + 1
	// The stamp names this attempt, not the version: an aborted round does
	// not advance the version, so a retry at the same version must still
	// tell its messages apart from the aborted round's leftovers.
	stamp := c.incRound.Add(1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	h.setCancel(cancel)

	nodes := c.cfg.Topo.Nodes()
	commits := make([]*pendingCommit, nodes)
	errc := make(chan error, nodes)
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			pc, err := c.nodeIncrementalSave(ctx, node, stamp, packetBytes, dicts)
			if err != nil {
				errc <- fmt.Errorf("core: node %d incremental save: %w", node, err)
				cancel()
				return
			}
			commits[node] = pc
		}(node)
	}
	wg.Wait()
	close(errc)
	defer func() {
		for _, pc := range commits {
			pc.release(c)
		}
	}()
	if err := <-errc; err != nil {
		if ctx.Err() != nil && c.isClosed() {
			err = fmt.Errorf("%w: %v", ErrSaveAborted, err)
		}
		return nil, err
	}

	// Every node's exchange succeeded; only now does host memory change.
	// Each node's manifest lands last, as in the full save's commit.
	manifest := manifestBlob(version, packetBytes, c.cfg.BufferSize)
	rep := &IncrementalReport{Version: version}
	for node, pc := range commits {
		for i, key := range pc.keys {
			if err := c.store(node, key, pc.blobs[i]); err != nil {
				return nil, fmt.Errorf("core: node %d commit v%d %q: %w", node, version, key, err)
			}
		}
		if err := c.store(node, keyManifest(), manifest); err != nil {
			return nil, fmt.Errorf("core: node %d commit v%d manifest: %w", node, version, err)
		}
		rep.ChangedBuffers += pc.changed
		rep.TotalBuffers += pc.total
	}
	c.version.Store(int64(version))
	rep.Elapsed = time.Since(started)
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("save_incremental_rounds_total").Inc()
		reg.Counter("incremental_changed_buffers_total").Add(int64(rep.ChangedBuffers))
		reg.Counter("incremental_total_buffers_total").Add(int64(rep.TotalBuffers))
		reg.Histogram("save_incremental_ns").ObserveDuration(rep.Elapsed)
	}
	return rep, nil
}

// pendingCommit is one node's share of an incremental round, held in
// memory until every node's exchange succeeded: the blobs to write in
// order, and the pooled buffers to recycle once they are written.
type pendingCommit struct {
	keys   []string
	blobs  [][]byte
	pooled [][]byte
	// changed and total count this node's dirty and diffed windows.
	changed, total int
}

// add queues blob for key; pooled, when non-nil, is the buffer backing it.
func (p *pendingCommit) add(key string, blob, pooled []byte) {
	p.keys = append(p.keys, key)
	p.blobs = append(p.blobs, blob)
	if pooled != nil {
		p.pooled = append(p.pooled, pooled)
	}
}

// release recycles the pooled buffers; safe on nil.
func (p *pendingCommit) release(c *Checkpointer) {
	if p == nil {
		return
	}
	for _, b := range p.pooled {
		c.buf.Put(b)
	}
}

// deltaStream is one inbound (rank, destination) stream of a node.
type deltaStream struct {
	srcNode int
	tag     string
	seg     int
}

// patchedSegment is one of a node's chunk segments, fetched on first
// touch. The lock serialises the fetch and every XOR into the segment.
type patchedSegment struct {
	mu   sync.Mutex
	blob []byte
}

// nodeIncrementalSave runs one node's side: diff local packets against
// their caches in place, ship per-stream dirty bitmaps and the dirty
// slices (raw Δ to the data node, coefficient·Δ to every parity node),
// and apply inbound slices to the segments they hit. Nothing is written
// to host memory: the returned commit holds the patched segments,
// refreshed caches and small components for the coordinator to store
// once every node succeeded.
func (c *Checkpointer) nodeIncrementalSave(ctx context.Context, node int, stamp uint64, packetBytes int, dicts []*statedict.StateDict) (*pendingCommit, error) {
	topo := c.cfg.Topo
	lay := c.layout()
	plan := lay.plan
	g := topo.GPUsPerNode()
	bufSize := c.cfg.BufferSize
	numBuffers := (packetBytes + bufSize - 1) / bufSize
	bitmapLen := stampLen + (numBuffers+7)/8
	window := func(b int) (int, int) {
		lo := b * bufSize
		return lo, min(lo+bufSize, packetBytes)
	}

	ep, err := c.endpoint(node)
	if err != nil {
		return nil, err
	}

	// A failure anywhere cancels this node's own goroutines at once; the
	// first error wins, so a receiver's real cause is not masked by the
	// cancellation it triggers in the sender loop.
	ctx, cancel := context.WithCancel(ctx)
	var (
		applyWG  sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) error {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		err = firstErr
		errMu.Unlock()
		cancel()
		return err
	}
	pc := &pendingCommit{}
	ok := false
	defer func() {
		cancel()
		applyWG.Wait()
		if !ok {
			pc.release(c)
		}
	}()

	myChunk := plan.ChunkOfNode[node]
	segs := make([]patchedSegment, topo.World()/c.cfg.K)
	patch := func(s, lo int, delta []byte) error {
		seg := &segs[s]
		seg.mu.Lock()
		defer seg.mu.Unlock()
		if seg.blob == nil {
			blob, err := c.fetch(node, lay.keys.segment[myChunk][s])
			if err != nil {
				return err
			}
			if len(blob) != packetBytes {
				return fmt.Errorf("chunk %d segment %d has %d bytes, want %d", myChunk, s, len(blob), packetBytes)
			}
			seg.blob = blob
		}
		return gf.XORSlice(seg.blob[lo:lo+len(delta)], delta)
	}

	// Receivers: one goroutine per inbound stream. A data node hears from
	// the remote workers of its own group, a parity node from every
	// remote worker.
	var streams []deltaStream
	for w := 0; w < topo.World(); w++ {
		srcNode, err := topo.NodeOf(w)
		if err != nil {
			return nil, err
		}
		if srcNode == node {
			continue
		}
		if myChunk < c.cfg.K {
			if plan.DataGroupOf[w] == myChunk {
				streams = append(streams, deltaStream{srcNode: srcNode, tag: tagDelta(w, -1), seg: plan.SegmentOf[w]})
			}
			continue
		}
		streams = append(streams, deltaStream{srcNode: srcNode, tag: tagDelta(w, myChunk-c.cfg.K), seg: plan.SegmentOf[w]})
	}
	for _, st := range streams {
		applyWG.Add(1)
		go func(st deltaStream) {
			defer applyWG.Done()
			bm, err := c.recvStamped(ctx, ep, st.srcNode, st.tag, stamp, bitmapLen)
			if err != nil {
				fail(err)
				return
			}
			defer c.buf.Put(bm)
			bits := bm[stampLen:]
			if err := checkBitmap(bits, numBuffers); err != nil {
				fail(fmt.Errorf("stream %q: %w", st.tag, err))
				return
			}
			for b := 0; b < numBuffers; b++ {
				if bits[b>>3]&(1<<(b&7)) == 0 {
					continue
				}
				lo, hi := window(b)
				msg, err := c.recvStamped(ctx, ep, st.srcNode, st.tag, stamp, stampLen+hi-lo)
				if err != nil {
					fail(err)
					return
				}
				err = patch(st.seg, lo, msg[stampLen:])
				c.buf.Put(msg)
				if err != nil {
					fail(err)
					return
				}
			}
		}(st)
	}

	// Decompose the local workers (tensor slices alias the dicts; nothing
	// is copied) and broadcast their small components.
	decs := make([]*statedict.Decomposition, g)
	for i := range decs {
		w := node*g + i
		dec, err := dicts[w].DecomposeWith(c.buf)
		if err != nil {
			return nil, fail(fmt.Errorf("rank %d decompose: %w", w, err))
		}
		decs[i] = dec
		pc.add(lay.keys.smallMeta[w], dec.MetaBlob, dec.MetaBlob)
		pc.add(lay.keys.smallKeys[w], dec.KeysBlob, dec.KeysBlob)
		if err := c.broadcastStamped(ctx, ep, node, tagIncMeta(w), stamp, dec.MetaBlob); err != nil {
			return nil, fail(err)
		}
		if err := c.broadcastStamped(ctx, ep, node, tagIncKeys(w), stamp, dec.KeysBlob); err != nil {
			return nil, fail(err)
		}
	}

	// Per-window scratch, stamped once: the payload behind the stamp is
	// rewritten for every dirty window and Send copies it out.
	bitmap := c.stamped(bitmapLen, stamp)
	delta := c.stamped(stampLen+min(bufSize, packetBytes), stamp)
	coded := c.stamped(stampLen+min(bufSize, packetBytes), stamp)
	defer func() {
		c.buf.Put(bitmap)
		c.buf.Put(delta)
		c.buf.Put(coded)
	}()
	parityTags := make([]string, len(plan.ParityNodes))
	coefs := make([]int, len(plan.ParityNodes))

	for i, dec := range decs {
		w := node*g + i
		j := plan.DataGroupOf[w]
		seg := plan.SegmentOf[w]
		dataNode := plan.DataNodes[j]
		cache, err := c.fetch(node, lay.keys.ownPacket[w])
		if err != nil {
			return nil, fail(err)
		}
		if len(cache) != packetBytes {
			return nil, fail(fmt.Errorf("rank %d cache has %d bytes, want %d", w, len(cache), packetBytes))
		}

		// Diff: one read-only comparison per window against the tensor
		// slices that cover it.
		bits := bitmap[stampLen:]
		clear(bits)
		dirty := 0
		cur := packetCursor{parts: dec.TensorData}
		for b := 0; b < numBuffers; b++ {
			lo, hi := window(b)
			if !cur.equal(cache[lo:hi]) {
				bits[b>>3] |= 1 << (b & 7)
				dirty++
			}
		}
		pc.changed += dirty
		pc.total += numBuffers

		dataTag := tagDelta(w, -1)
		for pi, pNode := range plan.ParityNodes {
			if coefs[pi], err = c.code.ParityCoefficient(pi, j); err != nil {
				return nil, fail(err)
			}
			parityTags[pi] = tagDelta(w, pi)
			if pNode != node {
				if err := ep.Send(ctx, pNode, parityTags[pi], bitmap); err != nil {
					return nil, fail(err)
				}
			}
		}
		if dataNode != node {
			if err := ep.Send(ctx, dataNode, dataTag, bitmap); err != nil {
				return nil, fail(err)
			}
		}
		if dirty == 0 {
			continue
		}

		// Dirty windows only: gather the new bytes, form Δ against the
		// cache, and patch the cache into the new packet.
		cur = packetCursor{parts: dec.TensorData}
		for b := 0; b < numBuffers; b++ {
			if bits[b>>3]&(1<<(b&7)) == 0 {
				continue
			}
			lo, hi := window(b)
			msg := delta[:stampLen+hi-lo]
			d := msg[stampLen:]
			cur.seek(lo)
			cur.read(d)
			if err := gf.XORSlice(d, cache[lo:hi]); err != nil {
				return nil, fail(err)
			}
			if err := gf.XORSlice(cache[lo:hi], d); err != nil {
				return nil, fail(err)
			}
			if dataNode == node {
				err = patch(seg, lo, d)
			} else {
				err = ep.Send(ctx, dataNode, dataTag, msg)
			}
			if err != nil {
				return nil, fail(err)
			}
			for pi, pNode := range plan.ParityNodes {
				cmsg := coded[:len(msg)]
				if err := c.scalarMulPooled(coefs[pi], cmsg[stampLen:], d); err != nil {
					return nil, fail(err)
				}
				if pNode == node {
					err = patch(seg, lo, cmsg[stampLen:])
				} else {
					err = ep.Send(ctx, pNode, parityTags[pi], cmsg)
				}
				if err != nil {
					return nil, fail(err)
				}
			}
		}
		pc.add(lay.keys.ownPacket[w], cache, nil)
	}

	// Small components of every remote rank.
	recvSmall := func(srcNode int, tag, key string) error {
		msg, err := c.recvStamped(ctx, ep, srcNode, tag, stamp, -1)
		if err != nil {
			return err
		}
		pc.add(key, msg[stampLen:], msg)
		return nil
	}
	for rank := 0; rank < topo.World(); rank++ {
		srcNode, err := topo.NodeOf(rank)
		if err != nil {
			return nil, fail(err)
		}
		if srcNode == node {
			continue
		}
		if err := recvSmall(srcNode, tagIncMeta(rank), lay.keys.smallMeta[rank]); err != nil {
			return nil, fail(err)
		}
		if err := recvSmall(srcNode, tagIncKeys(rank), lay.keys.smallKeys[rank]); err != nil {
			return nil, fail(err)
		}
	}

	// The receivers are done once every inbound stream is exhausted; Wait
	// also orders their firstErr write before this read.
	applyWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for s := range segs {
		if segs[s].blob != nil {
			pc.add(lay.keys.segment[myChunk][s], segs[s].blob, nil)
		}
	}
	ok = true
	return pc, nil
}

// stamped returns a pooled buffer of n bytes whose first stampLen bytes
// carry the round stamp.
func (c *Checkpointer) stamped(n int, stamp uint64) []byte {
	b := c.buf.Get(n)
	binary.LittleEndian.PutUint64(b, stamp)
	return b
}

// broadcastStamped sends stamp+blob under tag to every other node.
func (c *Checkpointer) broadcastStamped(ctx context.Context, ep transport.Endpoint, node int, tag string, stamp uint64, blob []byte) error {
	msg := c.stamped(stampLen+len(blob), stamp)
	defer c.buf.Put(msg)
	copy(msg[stampLen:], blob)
	for peer := 0; peer < c.cfg.Topo.Nodes(); peer++ {
		if peer == node {
			continue
		}
		if err := ep.Send(ctx, peer, tag, msg); err != nil {
			return err
		}
	}
	return nil
}

// recvStamped receives the next message of round stamp on an incremental
// stream. Leftovers of earlier rounds are dropped and counted in
// transport_stale_dropped_total; a later round's message fails with
// ErrStampAhead. want, when non-negative, is the exact length the
// message must have, stamp included.
func (c *Checkpointer) recvStamped(ctx context.Context, ep transport.Endpoint, from int, tag string, stamp uint64, want int) ([]byte, error) {
	for {
		msg, err := ep.Recv(ctx, from, tag)
		if err != nil {
			return nil, err
		}
		if len(msg) < stampLen {
			c.buf.Put(msg)
			return nil, fmt.Errorf("core: %q from node %d: %d-byte message has no round stamp", tag, from, len(msg))
		}
		got := binary.LittleEndian.Uint64(msg)
		switch {
		case got < stamp:
			c.buf.Put(msg)
			if reg := c.cfg.Metrics; reg != nil {
				reg.Counter("transport_stale_dropped_total").Inc()
			}
			continue
		case got > stamp:
			c.buf.Put(msg)
			return nil, fmt.Errorf("%w: %q from node %d has stamp %d, round is %d", ErrStampAhead, tag, from, got, stamp)
		case want >= 0 && len(msg) != want:
			c.buf.Put(msg)
			return nil, fmt.Errorf("core: %q from node %d: message of %d bytes, want %d", tag, from, len(msg), want)
		}
		return msg, nil
	}
}

// checkBitmap rejects a dirty bitmap with bits set past the last window.
func checkBitmap(bits []byte, numBuffers int) error {
	if numBuffers%8 != 0 && bits[len(bits)-1]>>(numBuffers%8) != 0 {
		return fmt.Errorf("dirty bitmap marks windows past the last of %d", numBuffers)
	}
	return nil
}

// packetCursor walks a worker's packet in place — its tensor slices
// back to back, zero-padded to the packet size — without materialising
// it. It only moves forward.
type packetCursor struct {
	parts [][]byte
	part  int // index of the current tensor slice
	off   int // offset into it
	pos   int // packet offset
}

// next returns the longest run of tensor bytes at the cursor, at most n
// long, and advances past it. An empty run means the cursor is in the
// zero padding after the last tensor.
func (p *packetCursor) next(n int) []byte {
	for p.part < len(p.parts) && p.off == len(p.parts[p.part]) {
		p.part, p.off = p.part+1, 0
	}
	if p.part == len(p.parts) {
		return nil
	}
	run := p.parts[p.part][p.off:]
	run = run[:min(len(run), n)]
	p.off += len(run)
	p.pos += len(run)
	return run
}

// seek advances the cursor to packet offset pos.
func (p *packetCursor) seek(pos int) {
	for p.pos < pos {
		if run := p.next(pos - p.pos); len(run) == 0 {
			p.pos = pos
		}
	}
}

// equal reports whether the packet bytes at the cursor equal old, and
// advances past them.
func (p *packetCursor) equal(old []byte) bool {
	eq := true
	for len(old) > 0 {
		run := p.next(len(old))
		if len(run) == 0 {
			p.pos += len(old)
			return eq && isZero(old)
		}
		eq = eq && bytes.Equal(run, old[:len(run)])
		old = old[len(run):]
	}
	return eq
}

// read copies the packet bytes at the cursor into dst and advances past
// them.
func (p *packetCursor) read(dst []byte) {
	for len(dst) > 0 {
		run := p.next(len(dst))
		if len(run) == 0 {
			p.pos += len(dst)
			clear(dst)
			return
		}
		dst = dst[copy(dst, run):]
	}
}

// zeroPage is the comparand for the zero padding after a packet's tensors.
var zeroPage [4096]byte

// isZero reports whether b is all zeros.
func isZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroPage))
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}
