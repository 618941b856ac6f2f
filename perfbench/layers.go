package main

import (
	"slices"
	"time"
)

// perLayerMetricDefs are the traced run's metrics, in BENCHMARK.json order.
// A layer the workload never reaches reports 0 (its count is 0 in the
// printed table).
var perLayerMetricDefs = []metricDef{
	{"serve.json_decode_us", "us"},
	{"serve.json_encode_us", "us"},
	{"serve.http_self_us", "us"},
	{"serve.fingerprint_us", "us"},
	{"serve.hit_us", "us"},
	{"serve.miss_us", "us"},
	{"serve.engine_self_us", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.lookups", "count"},
	{"serve.delta_ratio", "ratio"},
	{"serve.misses", "count"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.bypass_ratio", "ratio"},
	{"serve.requests", "count"},
	{"cache.get_ns", "ns"},
	{"cache.evictions", "count"},
	{"cache.entries", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.frame_bytes", "bytes"},
	{"cluster.owner_ns", "ns"},
	{"cluster.wire_rtt_us", "us"},
	{"cluster.repl_sent", "count/1k"},
	{"cluster.repl_applied", "count/1k"},
	{"cluster.repl_dropped", "count/1k"},
	{"cluster.cold_solves", "count"},
	{"core.dp_dense_us", "us"},
	{"core.dp_sparse_us", "us"},
	{"core.dp_checkpoint_us", "us"},
	{"core.dp_warm_us", "us"},
	{"core.cells_per_solve", "count"},
	{"core.sparse_cells_per_solve", "count"},
	{"core.rows_rerun_frac", "frac"},
	{"multiproc.hetero_us", "us"},
	{"multiproc.lower_bound_us", "us"},
	{"multiproc.allocs_per_solve", "count"},
	{"multiproc.gap_mean", "frac"},
	{"loadgen.p99_us", "us"},
	{"loadgen.lag_p99_us", "us"},
	{"host.steal_frac", "frac"},
	{"host.kept_steal_frac", "frac"},
	{"loadgen.open_samples", "count"},
	{"verify.check_us", "us"},
	{"verify.failed_frac", "frac"},
	{"verify.edf_rounding_misses", "count"},
	{"verify.mean_gap", "frac"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
}

// spanTimings are the per-layer timings read straight off the durations
// of one span name.
var spanTimings = []struct {
	metric, span string
	scale        time.Duration // unit of the metric
}{
	{"serve.json_decode_us", "serve.json_decode", time.Microsecond},
	{"serve.json_encode_us", "serve.json_encode", time.Microsecond},
	{"serve.fingerprint_us", "serve.fingerprint", time.Microsecond},
	{"serve.hit_us", "serve.hit", time.Microsecond},
	{"serve.miss_us", "serve.miss", time.Microsecond},
	{"cache.get_ns", "cache.get", time.Nanosecond},
	{"cluster.owner_ns", "cluster.owner", time.Nanosecond},
	{"cluster.wire_rtt_us", "cluster.wire_rtt", time.Microsecond},
	{"core.dp_dense_us", "core.dp_dense", time.Microsecond},
	{"core.dp_sparse_us", "core.dp_sparse", time.Microsecond},
	{"core.dp_checkpoint_us", "core.dp_checkpoint", time.Microsecond},
	{"core.dp_warm_us", "core.dp_warm", time.Microsecond},
	{"multiproc.hetero_us", "multiproc.hetero", time.Microsecond},
	{"multiproc.lower_bound_us", "multiproc.lower_bound", time.Microsecond},
}

// wrapperSpans time a whole round trip; their self time is what the layer
// spans under them leave unexplained, so coverage does not count it.
var wrapperSpans = map[string]bool{"request": true, "cluster.wire_rtt": true}

// layerStat is one printed per-layer timing: median and sample count.
type layerStat struct {
	median time.Duration
	count  int
}

// perLayerMetrics derives every per-layer metric from the traced phase's
// spans and side measurements, and from the fleet's counter deltas over
// the untraced phases.
func perLayerMetrics(tr *tracedRun, ctr counterDelta) (map[string]metric, map[string]layerStat) {
	m := map[string]metric{}
	stats := map[string]layerStat{}
	put := func(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(perLayerMetricDefs, name)} }
	timing := func(name string, ds []time.Duration, scale time.Duration) {
		st := layerStat{median: median(ds), count: len(ds)}
		stats[name] = st
		put(name, float64(st.median)/float64(scale))
	}

	byName := map[string][]time.Duration{}
	nSpans := 0
	for _, b := range tr.tracer.bufs {
		nSpans += len(b.spans)
		for _, s := range b.spans {
			byName[s.name] = append(byName[s.name], s.dur())
		}
	}
	for _, t := range spanTimings {
		timing(t.metric, byName[t.span], t.scale)
	}
	timing("serve.http_self_us", tr.httpSelf, time.Microsecond)
	timing("serve.engine_self_us", tr.engineSelf, time.Microsecond)
	timing("wire.encode_ns", tr.encodeNs, time.Nanosecond)
	timing("wire.decode_ns", tr.decodeNs, time.Nanosecond)
	lags := slices.Clone(tr.openLags)
	slices.Sort(lags)
	stats["loadgen.lag_p99_us"] = layerStat{median: percentile(lags, 0.99), count: len(lags)}
	put("loadgen.lag_p99_us", us(percentile(lags, 0.99)))
	timing("verify.check_us", tr.all.checkTimes, time.Microsecond)

	put("serve.lookups", float64(ctr.hits+ctr.misses))
	put("serve.hit_ratio", ratio(ctr.hits, ctr.hits+ctr.misses))
	put("serve.misses", float64(ctr.misses))
	put("serve.delta_ratio", ratio(ctr.deltaSolves, ctr.misses))
	put("serve.requests", float64(ctr.requests))
	put("serve.coalesced_ratio", ratio(ctr.coalesced, ctr.requests))
	put("serve.bypass_ratio", ratio(ctr.bypasses, ctr.requests))
	put("cache.evictions", float64(ctr.evictions))
	put("cache.entries", float64(ctr.entries))
	cold := ctr.misses - min(ctr.misses, ctr.coalesced)
	put("cluster.cold_solves", float64(cold))
	put("cluster.repl_sent", 1000*ratio(ctr.replSent, cold))
	put("cluster.repl_applied", 1000*ratio(ctr.replApplied, cold))
	put("cluster.repl_dropped", 1000*ratio(ctr.replDropped, cold))

	put("wire.frame_bytes", meanOf(tr.frameBytes))
	put("core.cells_per_solve", meanOf(tr.cells))
	put("core.sparse_cells_per_solve", meanOf(tr.sparseCells))
	put("core.rows_rerun_frac", ratio(uint64(tr.rowsWarm), uint64(tr.rowsCold)))
	put("multiproc.allocs_per_solve", meanOf(tr.allocs))
	put("multiproc.gap_mean", meanOf(tr.gaps))

	put("loadgen.open_samples", float64(tr.openSamples))
	stats["loadgen.p99_us"] = layerStat{median: tr.openP99, count: tr.openSamples}
	put("loadgen.p99_us", us(tr.openP99))
	put("host.steal_frac", tr.steal)
	put("host.kept_steal_frac", tr.keptSteal)
	put("verify.failed_frac", ratio(uint64(tr.all.failed()), uint64(tr.all.attempted)))
	put("verify.edf_rounding_misses", float64(tr.all.edfRounding))
	put("verify.mean_gap", tr.all.gapSum/float64(max(1, tr.all.correct)))
	put("trace.coverage", coverage(tr.tracer))
	put("trace.overhead", tr.tracedRPS/tr.untracedRPS)
	put("trace.spans", float64(nSpans))
	return m, stats
}

// coverage is the median, over replayed requests, of the self time of the
// layer spans in the request's tree, divided by the median round trip of
// those requests: the share of the end-to-end latency that the
// independently timed layers account for.
func coverage(t *tracer) float64 {
	var attributed, e2e []time.Duration
	for _, b := range t.bufs {
		child := make([]time.Duration, len(b.spans)) // Σ child durations per span
		root := make([]int, len(b.spans))            // root of each span's tree
		for i, s := range b.spans {
			root[i] = i
			if s.parent >= 0 {
				child[s.parent] += s.dur()
				root[i] = root[s.parent] // parents precede children
			}
		}
		perRoot := map[int]time.Duration{}
		replayed := map[int]bool{}
		for i, s := range b.spans {
			if s.parent < 0 || wrapperSpans[s.name] {
				continue
			}
			perRoot[root[i]] += s.dur() - child[i]
			replayed[root[i]] = true
		}
		for r := range replayed {
			attributed = append(attributed, perRoot[r])
			e2e = append(e2e, b.spans[r].dur())
		}
	}
	if len(e2e) == 0 {
		return 0
	}
	return float64(median(attributed)) / float64(median(e2e))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func meanOf[T int | int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
