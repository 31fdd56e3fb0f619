package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"eccheck/internal/bufpool"
	"eccheck/internal/ecpool"
	"eccheck/internal/erasure"
)

// microShape is a workload's coding shape: k data and m parity shards of
// one buffer window each.
type microShape struct{ k, m, shard int }

// microCalls bounds each codec row: at most this many calls, or
// microBudget of wall time, whichever comes first (at least 5 calls).
const (
	microCalls  = 200
	microBudget = 150 * time.Millisecond
)

// runMicro times the codec, pool and buffer-pool calls a round makes, on
// the workload's own shard shape, each call as a root span of its layer.
// It returns the erasure/ecpool/bufpool per-layer metrics.
func runMicro(rec *recorder, sh microShape, o options) (map[string]float64, error) {
	code, err := erasure.New(sh.k, sh.m)
	if err != nil {
		return nil, err
	}
	pool := ecpool.NewPool(0)
	defer pool.Close()
	rng := rand.New(rand.NewPCG(o.seed, 0x3c))
	shard := code.ChunkAlign(sh.shard)
	fill := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, shard)
			for j := range out[i] {
				out[i][j] = byte(rng.Uint32())
			}
		}
		return out
	}
	data, parity := fill(sh.k), fill(sh.m)
	dataBytes := float64(sh.k * shard)
	out := map[string]float64{}
	var ferr error
	row := func(layer, name string, bytes float64, setup func(), fn func() error) float64 {
		var s samples
		begin := time.Now()
		for i := 0; i < microCalls && (i < 5 || time.Since(begin) < microBudget); i++ {
			if setup != nil {
				setup()
			}
			d, err := rec.timed(layer, name, fn)
			if err != nil && ferr == nil {
				ferr = err
			}
			s = append(s, d.Seconds())
		}
		return bytes / s.quantile(0.5) / 1e9
	}

	out["erasure.encode_gb_s"] = row("erasure", "encode", dataBytes, nil,
		func() error { return code.Encode(data, parity) })

	// Reconstruct m erasures that include data chunk 0, as a decode load does.
	chunks := make([][]byte, sh.k+sh.m)
	out["erasure.reconstruct_gb_s"] = row("erasure", "reconstruct", dataBytes, func() {
		copy(chunks, data)
		copy(chunks[sh.k:], parity)
		for i := 0; i < sh.m; i++ {
			chunks[(i*(sh.k+sh.m))/sh.m] = nil
		}
	}, func() error { return code.Reconstruct(chunks) })

	dst := make([]byte, shard)
	out["erasure.delta_parity_gb_s"] = row("erasure", "delta_parity", float64(shard), nil,
		func() error { return code.DeltaParity(0, 0, dst, data[0]) })

	out["ecpool.xor_reduce_gb_s"] = row("ecpool", "xor_reduce", dataBytes, nil,
		func() error { return pool.XORReduce(dst, data) })

	// Allocations per parallel encode call, counted outside any span.
	const allocCalls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocCalls; i++ {
		if err := pool.Encode(code, data, parity); err != nil && ferr == nil {
			ferr = err
		}
	}
	runtime.ReadMemStats(&after)
	out["ecpool.allocs_per_call"] = float64(after.Mallocs-before.Mallocs) / allocCalls
	row("ecpool", "encode", dataBytes, nil, func() error { return pool.Encode(code, data, parity) })

	bp := bufpool.New()
	row("bufpool", "get_put", float64(shard), nil, func() error {
		bp.Put(bp.Get(shard))
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}

	stats := rec.attribute()
	per := map[string]samples{}
	for _, st := range stats {
		switch st.root.layer {
		case "erasure", "ecpool", "bufpool":
			per[st.root.layer] = append(per[st.root.layer], ms(time.Duration(st.root.dur())))
		}
	}
	for _, layer := range []string{"erasure", "ecpool", "bufpool"} {
		out[layer+".self_ms"] = per[layer].quantile(0.5)
	}
	return out, nil
}
