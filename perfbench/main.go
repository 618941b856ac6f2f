// Command perfbench is the repository's end-to-end serving benchmark. It
// launches real cmd/rejectschedd processes, drives them from this one
// load-generating process, checks every answer bit for bit against a
// direct in-process solve, and prints one JSON result as its last line.
//
//	bash perfbench/run.sh --workload hot-http --seed 1 --seconds 25 --trace 0
//
// Each run has an open-loop phase at the workload's fixed offered rate
// (latency, timed from each request's due time) and a closed-loop phase
// with two workers (capacity). --trace 1 adds a traced phase that times
// the benchmark's own calls into each layer and prints the per-layer
// metrics instead of the end-to-end ones.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dvsreject/internal/cluster"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // rejectschedd binary
	traceDir string // where the traced phase writes its spans ("" = nowhere)
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric and its unit; the lists below are the ones
// BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"slo_met_frac", "frac"},
	{"throughput_rps", "1/s"},
	{"cpu_us_per_req", "us"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"cost_over_lb", "ratio"},
}

// The open loop runs in rounds of a workload's roundGroups; the latency
// figures pool the quietest rounds holding a quarter of the requests, and
// at least minKeptSamples so that ten lie beyond the p99. The closed loop
// runs in closedRounds rounds, of which the quietest half count; it gets
// closedShare of an untraced run, enough rounds of a few hundred
// milliseconds that the kept half averages out the host's drift.
const (
	minKeptSamples = 1000
	closedRounds   = 10
	closedShare    = 0.3
)

// setupRuns is how many times a run launches the serving stack; setup_s
// is the median. The last launch serves the measured phases.
const setupRuns = 15

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (hot-http, cold-wire, hetero-herd)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed sends the same requests")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds, split across the run's phases")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced phase and prints per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "path to a built rejectschedd binary")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory for the traced phase's span file (empty = not written)")
	flag.Parse()
	o.trace = trace == 1
	// One P more than in-flight slots: the open-loop dispatcher holds its P
	// while it sleeps in the kernel (sleepUntil), and the workers must not
	// queue behind it.
	runtime.GOMAXPROCS(slots + 1)
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace %d, want 0 or 1", trace))
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// tally is the verified outcome of a set of records.
type tally struct {
	attempted, errors, shed, mismatches, oracle int
	edfRounding                                 int // correct answers the EDF replay misses by float rounding
	correct                                     int // answers that passed every check
	completed                                   int // answers received (no transport or server error)
	gapSum                                      float64
	costOverLBSum                               float64
	checkTimes                                  []time.Duration
	ok                                          []bool // per record: answered correctly
}

func (t *tally) failed() int { return t.errors + t.shed + t.mismatches + t.oracle }

// verifyPhase checks every record against its reference, on two
// goroutines (references are computed here, after the phase, so checking
// never competes with the daemons for CPU while they are measured).
func verifyPhase(recs []record) tally {
	t := tally{attempted: len(recs), ok: make([]bool, len(recs)), checkTimes: make([]time.Duration, len(recs))}
	errs := make([]error, len(recs))
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += slots {
				recs[i].out = recs[i].out.decode()
				if recs[i].out.err != nil {
					continue
				}
				t0 := time.Now()
				errs[i] = check(recs[i].inst, recs[i].out)
				t.checkTimes[i] = time.Since(t0)
			}
		}(w)
	}
	wg.Wait()
	for i, r := range recs {
		switch {
		case r.out.shed:
			t.shed++
		case r.out.err != nil:
			t.errors++
		case errors.Is(errs[i], errMismatch):
			t.mismatches++
		case errs[i] != nil && !errors.Is(errs[i], errEDFRounding):
			t.oracle++
		default:
			if errs[i] != nil {
				t.edfRounding++
			}
			t.ok[i] = true
			t.correct++
			g := gapOf(r.out)
			t.gapSum += g
			t.costOverLBSum += 1 / (1 - g)
		}
		if r.out.err == nil {
			t.completed++
		}
		if errs[i] != nil && !errors.Is(errs[i], errEDFRounding) && t.mismatches+t.oracle <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: bad answer: %v\n", errs[i])
		}
	}
	t.checkTimes = slices.DeleteFunc(t.checkTimes, func(d time.Duration) bool { return d == 0 })
	return t
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errors += o.errors
	t.shed += o.shed
	t.mismatches += o.mismatches
	t.oracle += o.oracle
	t.edfRounding += o.edfRounding
	t.correct += o.correct
	t.completed += o.completed
	t.gapSum += o.gapSum
	t.costOverLBSum += o.costOverLBSum
	t.checkTimes = append(t.checkTimes, o.checkTimes...)
}

// run executes one benchmark run and returns its result line.
func run(o options, w io.Writer) (result, error) {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.daemon == "" {
		return result{}, errors.New("--daemon is required (perfbench/run.sh builds it)")
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds %g, want > 0", o.seconds)
	}
	selfErr := selfTest()
	if selfErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: checker self-test:", selfErr)
	}

	// Split the measured time across the phases, and each untraced phase
	// into rounds.
	total := time.Duration(o.seconds * float64(time.Second))
	closedDur := time.Duration(closedShare * float64(total))
	openDur, tracedDur := total-closedDur, time.Duration(0)
	if o.trace {
		openDur, closedDur, tracedDur = total*3/10, total*3/10, total*4/10
	}
	openRounds := max(1, int(wl.openRate*openDur.Seconds())/wl.roundGroups)

	// Workload generation happens before launch: it is not set-up time.
	openStream := wl.newStream(phaseSeed(o.seed, 0))
	groups := make([][]group, openRounds)
	dues := make([][]time.Duration, openRounds)
	for r := range groups {
		groups[r] = make([]group, wl.roundGroups)
		for i := range groups[r] {
			groups[r][i] = openStream.next()
		}
		dues[r] = openSchedule(phaseSeed(o.seed, 10+r), wl.roundGroups, wl.openRate)
	}

	var setups []time.Duration
	var f *fleet
	for i := 0; i < setupRuns; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return result{}, err
			}
		}
		var setup time.Duration
		if f, setup, err = startFleet(o.daemon, wl); err != nil {
			return result{}, err
		}
		setups = append(setups, setup)
	}
	defer f.stop()
	cs, closeClients := newClients(wl, f)

	st0, err := f.stats()
	if err != nil {
		return result{}, err
	}
	closedStream := wl.newStream(phaseSeed(o.seed, 2))
	opens := make([]phase, openRounds)
	closeds := make([]phase, closedRounds)
	// All open-loop rounds run first: a saturated closed-loop round leaves
	// the host scheduler throttling the machine for a while, which would
	// leak into the latency of an open-loop round that followed it.
	for r := range opens {
		steal := stealTicks()
		opens[r] = openLoop(cs, groups[r], dues[r])
		opens[r].steal = stealTicks() - steal
	}
	for r := range closeds {
		cpu0, err := f.cpu()
		if err != nil {
			return result{}, err
		}
		steal := stealTicks()
		closeds[r] = closedLoop(cs, closedStream, closedDur/closedRounds, wl.pair)
		closeds[r].steal = stealTicks() - steal
		cpu1, err := f.cpu()
		if err != nil {
			return result{}, err
		}
		closeds[r].cpu = cpu1 - cpu0
	}
	st1, err := f.stats()
	if err != nil {
		return result{}, err
	}
	closeClients()

	var tr *tracedRun
	if o.trace {
		tr, err = runTraced(wl, f, wl.newStream(phaseSeed(o.seed, 3)), tracedDur)
		if err != nil {
			return result{}, err
		}
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	if err := f.stop(); err != nil {
		return result{}, err
	}

	// Check every answer; the figures then come from the quietest rounds.
	var all tally
	openT := make([]tally, len(opens))
	lagP99 := make([]float64, len(opens))
	sizes := make([]int, len(opens))
	var lats, lags []time.Duration
	for r, ph := range opens {
		openT[r] = verifyPhase(ph.recs)
		all.add(openT[r])
		rl := slices.Clone(ph.lags)
		slices.Sort(rl)
		lagP99[r] = float64(percentile(rl, 0.99))
		sizes[r] = len(ph.recs)
		lags = append(lags, ph.lags...)
	}
	sloMet := 0
	keptOpen := quietest(lagP99, sizes, max(minKeptSamples, len(opens)*len(opens[0].recs)/4))
	for _, r := range keptOpen {
		for i, rec := range opens[r].recs {
			lats = append(lats, rec.lat)
			if openT[r].ok[i] && rec.lat <= wl.slo {
				sloMet++
			}
		}
	}
	slices.Sort(lats)
	p50, p99 := percentile(lats, 0.5), percentile(lats, 0.99)
	if sizes[0] >= minKeptSamples {
		// Each kept round supports its own p99: report the median round.
		var r50, r99 []time.Duration
		for _, r := range keptOpen {
			rl := latencies(opens[r].recs)
			slices.Sort(rl)
			r50 = append(r50, percentile(rl, 0.5))
			r99 = append(r99, percentile(rl, 0.99))
		}
		p50, p99 = median(r50), median(r99)
	}
	closedT := make([]tally, closedRounds)
	steal := make([]float64, closedRounds)
	for r, ph := range closeds {
		closedT[r] = verifyPhase(ph.recs)
		all.add(closedT[r])
		steal[r] = float64(ph.steal)
	}
	var correct, completed int
	var elapsed, cpu time.Duration
	keptClosed := quietest(steal, nil, closedRounds/2)
	for _, r := range keptClosed {
		correct += closedT[r].correct
		completed += closedT[r].completed
		elapsed += closeds[r].elapsed
		cpu += closeds[r].cpu
	}
	throughput := float64(correct) / elapsed.Seconds()
	var tracedT tally
	if tr != nil {
		tracedT = verifyPhase(tr.recs)
		all.add(tracedT)
	}

	res := result{
		Correct:   selfErr == nil && all.mismatches == 0 && all.oracle == 0,
		Attempted: all.attempted,
		Failed:    all.failed(),
		Metrics:   map[string]metric{},
	}
	if !o.trace {
		put := func(name string, v float64) {
			res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEndMetrics, name)}
		}
		put("setup_s", median(setups).Seconds())
		put("p50_us", us(p50))
		put("slo_met_frac", float64(sloMet)/float64(len(lats)))
		put("throughput_rps", throughput)
		put("cpu_us_per_req", us(cpu)/float64(max(1, completed)))
		put("peak_rss_mb", rss)
		put("ok_frac", 1-float64(all.failed())/float64(all.attempted))
		put("cost_over_lb", all.costOverLBSum/float64(max(1, all.correct)))
		fmt.Fprintf(w, "%s seed %d: open loop at %g groups/s in %d rounds, kept %v (%d samples): p50 %v, p99 %v; closed loop %d rounds of %v, kept %v\n",
			wl.name, o.seed, wl.openRate, len(opens), keptOpen, len(lats), p50, p99, closedRounds, closedDur/closedRounds, keptClosed)
		for r, ph := range opens {
			rl := latencies(ph.recs)
			slices.Sort(rl)
			fmt.Fprintf(w, "  open round %d: steal %d ticks, generator lag p99 %v, p50 %v, p99 %v\n",
				r, ph.steal, time.Duration(lagP99[r]), percentile(rl, 0.5), percentile(rl, 0.99))
		}
		for r, ph := range closeds {
			fmt.Fprintf(w, "  closed round %d: steal %d ticks, %.0f/s\n", r, ph.steal, float64(closedT[r].correct)/ph.elapsed.Seconds())
		}
		slices.Sort(lags)
		fmt.Fprintf(w, "generator lag p50 %v p99 %v max %v\n", percentile(lags, 0.5), percentile(lags, 0.99), lags[len(lags)-1])
	} else {
		tr.untracedRPS = throughput
		tr.tracedRPS = float64(tracedT.correct) / tr.elapsed.Seconds()
		tr.openLags = lags
		tr.openSamples = len(lats)
		tr.openP99 = p99
		tr.steal = stealShare(append(slices.Clone(opens), closeds...))
		tr.keptSteal = stealShare(append(pick(opens, keptOpen), pick(closeds, keptClosed)...))
		tr.all = all
		var layers map[string]layerStat
		res.Metrics, layers = perLayerMetrics(tr, counters(st0, st1))
		printLayerCounts(w, layers)
		if o.traceDir != "" {
			path := fmt.Sprintf("%s/trace-%s-seed%d.jsonl", o.traceDir, wl.name, o.seed)
			if err := tr.tracer.write(path); err != nil {
				return result{}, err
			}
			fmt.Fprintf(w, "spans written to %s\n", path)
		}
	}
	fmt.Fprintf(w, "%s seed %d: attempted %d, errors %d, shed %d, mismatches %d, oracle failures %d (EDF rounding misses cleared: %d), failed_frac %g, mean_gap %g\n",
		wl.name, o.seed, all.attempted, all.errors, all.shed, all.mismatches, all.oracle, all.edfRounding,
		float64(all.failed())/float64(all.attempted), all.gapSum/float64(max(1, all.correct)))
	printMetrics(w, res.Metrics)
	return res, nil
}

// counterDelta is the change in the fleet's counters over the untraced
// phases.
type counterDelta struct {
	requests, hits, misses, coalesced, bypasses, deltaSolves uint64
	evictions                                                uint64
	entries                                                  int
	replSent, replApplied, replDropped                       uint64
}

// counters sums the nodes' counter changes between two snapshots; the
// plan-cache entry count is the second snapshot's.
func counters(before, after []cluster.NodeStats) counterDelta {
	var d counterDelta
	for i, b := range after {
		a := before[i]
		d.requests += b.Engine.Requests - a.Engine.Requests
		d.hits += b.Engine.Cache.Hits - a.Engine.Cache.Hits
		d.misses += b.Engine.Cache.Misses - a.Engine.Cache.Misses
		d.coalesced += b.Engine.Coalesced - a.Engine.Coalesced
		d.bypasses += b.Engine.Bypasses - a.Engine.Bypasses
		d.deltaSolves += b.Engine.DeltaSolves - a.Engine.DeltaSolves
		d.evictions += b.Engine.Cache.Evictions - a.Engine.Cache.Evictions
		d.entries += b.Engine.Cache.Entries
		d.replSent += b.ReplSent - a.ReplSent
		d.replApplied += b.ReplApplied - a.ReplApplied
		d.replDropped += b.ReplDropped - a.ReplDropped
	}
	return d
}

// printLayerCounts prints each per-layer timing with its sample count.
func printLayerCounts(w io.Writer, layers map[string]layerStat) {
	for _, d := range perLayerMetricDefs {
		if st, ok := layers[d.name]; ok {
			fmt.Fprintf(w, "  %-28s median %12.3fus over %d calls\n", d.name, us(st.median), st.count)
		}
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("undeclared metric " + name)
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(i-1, 0), len(sorted)-1)]
}

// quietest picks the rounds a run's figures come from: the least
// disturbed ones by key (ties go to the later, warmer round), as many as hold
// minSize in total, counting each round as sizes[r] (1 when sizes is nil).
//
// On a shared host, other tenants stall every process of the machine at
// once for milliseconds; in a stalled round the load generator itself runs
// late, and the round's tail latency and throughput measure the neighbours
// rather than the program. Open-loop rounds are keyed by the generator's
// p99 lateness, closed-loop rounds by the host's steal ticks. Both keys
// come from the harness, never from the figures being reported.
func quietest(key []float64, sizes []int, minSize int) []int {
	idx := make([]int, len(key))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Or(cmp.Compare(key[a], key[b]), cmp.Compare(b, a)) })
	k, n := 0, 0
	for k < len(idx) && (k == 0 || n < minSize) {
		if sizes == nil {
			n++
		} else {
			n += sizes[idx[k]]
		}
		k++
	}
	kept := slices.Clone(idx[:k])
	slices.Sort(kept)
	return kept
}

// stealTicks reads the host's steal counter (clock ticks the machine's
// CPUs were runnable but not run) from /proc/stat; 0 where the kernel does
// not report it.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line) // "cpu" user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 {
		return 0
	}
	steal, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return steal
}

// stealShare is the share of CPU time the host stole during the rounds.
func stealShare(ph []phase) float64 {
	var steal int64
	var wall time.Duration
	for _, p := range ph {
		steal += p.steal
		wall += p.elapsed
	}
	return float64(time.Duration(steal)*clockTick) / float64(wall*time.Duration(runtime.NumCPU()))
}

func pick(ph []phase, idx []int) []phase {
	out := make([]phase, len(idx))
	for i, j := range idx {
		out[i] = ph[j]
	}
	return out
}

func latencies(recs []record) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.lat
	}
	return out
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return percentile(s, 0.5)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
