package main

import (
	"context"
	"errors"
	"fmt"

	"eccheck"
	"eccheck/internal/cluster"
	"eccheck/internal/core"
	"eccheck/internal/obs"
	"eccheck/internal/obs/health"
	"eccheck/internal/transport"
)

// engine is what the library workloads call. *eccheck.System implements it
// (the untraced runs); tracedStack implements it over the same layers with
// span-recording decorators (the traced run).
type engine interface {
	Save(ctx context.Context, dicts []*eccheck.StateDict) (*eccheck.SaveReport, error)
	SaveAsync(ctx context.Context, dicts []*eccheck.StateDict) (*eccheck.SaveHandle, error)
	SaveIncremental(ctx context.Context, dicts []*eccheck.StateDict) (*eccheck.IncrementalReport, error)
	Load(ctx context.Context) ([]*eccheck.StateDict, *eccheck.LoadReport, error)
	LoadPartial(ctx context.Context, ranks []int) (map[int]*eccheck.StateDict, *eccheck.LoadReport, error)
	VerifyIntegrity() (*eccheck.VerifyReport, error)
	FailNode(node int) error
	ReplaceNode(node int) error
	DataNodes() []int
	Metrics() eccheck.Snapshot
	Close() error
}

var _ engine = (*eccheck.System)(nil)

// newEngine builds the untraced system through the public API, or the
// traced stack when rec is non-nil.
func newEngine(cfg eccheck.Config, rec *recorder) (engine, error) {
	if rec == nil {
		return eccheck.Initialize(cfg)
	}
	return newTracedStack(cfg, rec)
}

// tracedStack assembles the layers eccheck.Initialize builds — base
// transport, metrics wrapper, cluster host store, health tracker, engine —
// through core.New, with a span decorator outermost on the network and on
// the host store. Flight recording, logging, chaos and the remote tier are
// left out, as in the untraced configurations the benchmark uses.
type tracedStack struct {
	ckpt    *core.Checkpointer
	clus    *cluster.Cluster
	net     transport.Network
	reg     *obs.Registry
	tracker *health.Tracker
}

func newTracedStack(cfg eccheck.Config, rec *recorder) (*tracedStack, error) {
	if cfg.Chaos != nil || cfg.FlightEvents > 0 || cfg.Logger != nil || !cfg.DisableRemote {
		return nil, errors.New("traced stack supports only the benchmark's configurations")
	}
	topo, err := eccheck.NewTopology(cfg.Nodes, cfg.GPUsPerNode, cfg.TPDegree, cfg.PPStages)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	var base transport.Network
	switch cfg.Transport {
	case 0, eccheck.TransportMemory:
		base, err = transport.NewMemory(cfg.Nodes)
	case eccheck.TransportTCP:
		base, err = transport.NewTCPLoopback(cfg.Nodes)
	default:
		err = fmt.Errorf("unknown transport %d", cfg.Transport)
	}
	if err != nil {
		return nil, err
	}
	if ms, ok := base.(transport.MetricsSetter); ok {
		ms.SetMetrics(reg)
	}
	net, err := newTracedNetwork(transport.WithMetrics(base, reg), rec)
	if err != nil {
		_ = base.Close()
		return nil, err
	}
	clus, err := cluster.New(cfg.Nodes, cfg.GPUsPerNode)
	if err != nil {
		_ = base.Close()
		return nil, err
	}
	clus.SetMetrics(reg)
	tracker := health.NewTracker(nil)
	ckpt, err := core.New(core.Config{
		Topo:             topo,
		K:                cfg.K,
		M:                cfg.M,
		BufferSize:       cfg.BufferSize,
		PipelineDepth:    cfg.PipelineDepth,
		GroupFanIn:       cfg.GroupFanIn,
		IncrementalCache: cfg.Incremental,
		OpTimeout:        cfg.OpTimeout,
		RestoreWorkers:   cfg.RestoreWorkers,
		LoadBudget:       cfg.LoadBudget,
		Metrics:          reg,
		Health:           tracker,
		WatchdogFactor:   cfg.WatchdogFactor,
	}, net, newTracedStore(clus, rec), nil)
	if err != nil {
		_ = base.Close()
		return nil, err
	}
	tracker.SetProbe(func() health.Probe {
		p := health.Probe{
			Version:       ckpt.Version(),
			M:             ckpt.Code().M(),
			DegradedSlots: ckpt.DegradedSlots(),
			DeadNodes:     clus.FailedNodes(),
		}
		for node := 0; node < clus.Nodes(); node++ {
			if clus.Draining(node) {
				p.DrainingNodes = append(p.DrainingNodes, node)
			}
		}
		return p
	})
	return &tracedStack{ckpt: ckpt, clus: clus, net: net, reg: reg, tracker: tracker}, nil
}

func (s *tracedStack) Save(ctx context.Context, d []*eccheck.StateDict) (*eccheck.SaveReport, error) {
	return s.ckpt.Save(ctx, d)
}

func (s *tracedStack) SaveAsync(ctx context.Context, d []*eccheck.StateDict) (*eccheck.SaveHandle, error) {
	return s.ckpt.SaveAsync(ctx, d)
}

func (s *tracedStack) SaveIncremental(ctx context.Context, d []*eccheck.StateDict) (*eccheck.IncrementalReport, error) {
	return s.ckpt.SaveIncremental(ctx, d)
}

func (s *tracedStack) Load(ctx context.Context) ([]*eccheck.StateDict, *eccheck.LoadReport, error) {
	return s.ckpt.Load(ctx)
}

func (s *tracedStack) LoadPartial(ctx context.Context, ranks []int) (map[int]*eccheck.StateDict, *eccheck.LoadReport, error) {
	return s.ckpt.LoadPartial(ctx, ranks)
}

func (s *tracedStack) VerifyIntegrity() (*eccheck.VerifyReport, error) {
	return s.ckpt.VerifyIntegrity()
}

// FailNode and ReplaceNode mirror eccheck.System: a failure recomputes the
// protection score, and a replacement is fenced behind the save slot.
func (s *tracedStack) FailNode(node int) error {
	err := s.clus.Fail(node)
	s.tracker.Recompute()
	return err
}

func (s *tracedStack) ReplaceNode(node int) error {
	err := s.ckpt.WithSaveFence(context.Background(), func() error { return s.clus.Replace(node) })
	s.tracker.Recompute()
	return err
}

func (s *tracedStack) DataNodes() []int { return append([]int(nil), s.ckpt.Plan().DataNodes...) }

func (s *tracedStack) Metrics() eccheck.Snapshot { return s.reg.Snapshot() }

func (s *tracedStack) Close() error { return errors.Join(s.ckpt.Close(), s.net.Close()) }

// tracedNetwork records a span per Send and Recv. The engine type-asserts
// no optional interface on the network, so none is forwarded; the base
// transport's MetricsSetter is applied before wrapping, as Initialize does.
type tracedNetwork struct {
	inner transport.Network
	eps   []transport.Endpoint
}

func newTracedNetwork(inner transport.Network, rec *recorder) (*tracedNetwork, error) {
	n := &tracedNetwork{inner: inner, eps: make([]transport.Endpoint, inner.Size())}
	for i := range n.eps {
		ep, err := inner.Endpoint(i)
		if err != nil {
			return nil, err
		}
		n.eps[i] = &tracedEndpoint{ep: ep, rec: rec}
	}
	return n, nil
}

func (n *tracedNetwork) Size() int    { return n.inner.Size() }
func (n *tracedNetwork) Close() error { return n.inner.Close() }

func (n *tracedNetwork) Endpoint(node int) (transport.Endpoint, error) {
	if node < 0 || node >= len(n.eps) {
		return n.inner.Endpoint(node) // the inner network's range error
	}
	return n.eps[node], nil
}

type tracedEndpoint struct {
	ep  transport.Endpoint
	rec *recorder
}

func (e *tracedEndpoint) Rank() int    { return e.ep.Rank() }
func (e *tracedEndpoint) Close() error { return e.ep.Close() }

func (e *tracedEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	start := e.rec.now()
	err := e.ep.Send(ctx, to, tag, payload)
	e.rec.leaf("transport", "send", e.ep.Rank(), len(payload), start)
	return err
}

func (e *tracedEndpoint) Recv(ctx context.Context, from int, tag string) ([]byte, error) {
	start := e.rec.now()
	b, err := e.ep.Recv(ctx, from, tag)
	e.rec.leaf("transport", "recv", e.ep.Rank(), len(b), start)
	return b, err
}

// tracedStore records a span per host-store call.
type tracedStore struct {
	inner core.HostStore
	rec   *recorder
}

// blobMover is the optional host-store interface the engine asserts for
// its commit fast path (a rename instead of a copy).
type blobMover interface {
	Move(node int, srcKey, dstKey string) error
}

// tracedMoverStore forwards Move so the traced engine takes the same
// commit path as the untraced one.
type tracedMoverStore struct {
	*tracedStore
	mover blobMover
}

// newTracedStore wraps inner, forwarding Move only when inner has it.
func newTracedStore(inner core.HostStore, rec *recorder) core.HostStore {
	ts := &tracedStore{inner: inner, rec: rec}
	if m, ok := inner.(blobMover); ok {
		return &tracedMoverStore{tracedStore: ts, mover: m}
	}
	return ts
}

func (s *tracedStore) Nodes() int          { return s.inner.Nodes() }
func (s *tracedStore) WorkersPerNode() int { return s.inner.WorkersPerNode() }
func (s *tracedStore) Alive(node int) bool { return s.inner.Alive(node) }

func (s *tracedStore) Store(node int, key string, blob []byte) error {
	start := s.rec.now()
	err := s.inner.Store(node, key, blob)
	s.rec.leaf("cluster", "store", node, len(blob), start)
	return err
}

func (s *tracedStore) Load(node int, key string) ([]byte, error) {
	start := s.rec.now()
	b, err := s.inner.Load(node, key)
	s.rec.leaf("cluster", "load", node, len(b), start)
	return b, err
}

func (s *tracedStore) Has(node int, key string) bool {
	start := s.rec.now()
	ok := s.inner.Has(node, key)
	s.rec.leaf("cluster", "has", node, 0, start)
	return ok
}

func (s *tracedStore) Delete(node int, key string) error {
	start := s.rec.now()
	err := s.inner.Delete(node, key)
	s.rec.leaf("cluster", "delete", node, 0, start)
	return err
}

func (s *tracedMoverStore) Move(node int, srcKey, dstKey string) error {
	start := s.rec.now()
	err := s.mover.Move(node, srcKey, dstKey)
	s.rec.leaf("cluster", "move", node, 0, start)
	return err
}
