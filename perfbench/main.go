// Command perfbench is the repository's interaction benchmark. It sets up
// the real urbane.Server on generated data and drives it over loopback HTTP
// with one closed-loop client: one analyst who waits for each map before
// asking for the next. Every response is checked, a seeded sample is
// compared byte for byte with a reference server, and the last line of
// standard output is one JSON object with the run's metrics.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload adhoc --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same seed
// with spans recorded around calls into each layer and reports the
// per-layer metrics. WORKLOADS.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// paperTaxi is the paper-scale taxi point count; 311 and photos scale with it.
const paperTaxi = 1_000_000

// interactiveMs is the interactive latency limit: the usual bound for a
// response to feel immediate in direct manipulation.
const interactiveMs = 100

const (
	// setups is how often the untraced run sets the program up; setup_s is
	// the median.
	setups = 3
	// prefix is how many leading requests the exact counters, the digest
	// and the reference check cover. It is a count, not a time, so they
	// repeat across runs of one seed however fast the host is.
	prefix = 48
	// checks is how many reads of the prefix are re-issued against the
	// reference server.
	checks = 24
	// leadIn is the untimed start of every loop, in which caches fill.
	leadIn = 2 * time.Second
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	timed    time.Duration
	trace    bool
	// dir holds the run's scratch files.
	dir string
}

func (c config) phase(timed time.Duration) phase {
	return phase{warm: leadIn, timed: timed, prefix: prefix}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "adhoc", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the inputs and the request stream")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.timed = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traceFlag == 1
	sp, err := specByName(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg.dir = filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", sp.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)

	res, err := measure(ctx, sp, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, "#", line)
	}
	for _, m := range res.mismatches {
		fmt.Fprintln(stderr, "mismatch:", m)
	}
	out, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if res.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	attempted, failed int
	mismatches        []string
	metrics           []metric
	report            []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// summary is the JSON object the last line of output carries.
func (r *result) summary() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

// programs sets the program up afresh for each phase of a run, closing
// the previous one first, and records every set-up time.
type programs struct {
	ctx   context.Context
	sp    spec
	in    *inputs
	dir   string
	times []float64
	cur   *env
}

func (p *programs) next() (*env, error) {
	p.close()
	runtime.GC()
	dir := filepath.Join(p.dir, fmt.Sprintf("setup%d", len(p.times)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	e, err := build(p.ctx, p.sp, p.in, dir, false)
	p.times = append(p.times, time.Since(start).Seconds())
	p.cur = e
	return e, err
}

func (p *programs) close() {
	if p.cur != nil {
		p.cur.close()
		p.cur = nil
	}
}

// measure runs one workload: generate the inputs, set the program up, run
// the loop, and check the outputs.
func measure(ctx context.Context, sp spec, cfg config) (*result, error) {
	res := &result{}
	genStart := time.Now()
	in := generate(paperTaxi, cfg.seed)
	sc := schemaOf(in.points)
	res.note("host: nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res.note("workload %s seed %d: inputs generated in %.2fs (not in setup_s)", sp.name, cfg.seed, time.Since(genStart).Seconds())
	for _, ps := range in.points {
		res.note("dataset %s: %d points", ps.Name, ps.Len())
	}
	progs := &programs{ctx: ctx, sp: sp, in: in, dir: cfg.dir}
	defer progs.close()
	if cfg.trace {
		return res, traced(ctx, sp, cfg, in, sc, progs, res)
	}

	var e *env
	for k := 0; k < setups; k++ {
		var err error
		if e, err = progs.next(); err != nil {
			return nil, err
		}
	}
	noteSegments(res, sp, e)
	lp, err := drive(e, sp.newStream(cfg.seed, sc), cfg.phase(cfg.timed), nil, nil)
	if err != nil {
		return nil, err
	}
	if err := check(ctx, sp, cfg, in, lp, res); err != nil {
		return nil, err
	}
	endToEnd(res, lp, progs.times)
	return res, nil
}

// noteSegments reports each segment file's size against its block-cache
// budget.
func noteSegments(res *result, sp spec, e *env) {
	for _, name := range sp.segmented {
		res.note("segment %s: %d file bytes, block-cache budget %d bytes", name, e.segBytes[name], sp.segCacheBytes)
	}
}

// check counts every failed request and compares a seeded sample of the
// prefix's reads with a reference server.
func check(ctx context.Context, sp spec, cfg config, in *inputs, lp *loop, res *result) error {
	all := lp.all()
	res.attempted = len(all)
	for _, o := range all {
		if o.err != nil {
			res.failed++
			if len(res.mismatches) < 5 {
				res.mismatches = append(res.mismatches, o.err.Error())
			}
		}
	}
	checked, bad, err := verify(ctx, sp, in, lp.warm[:prefix], cfg.seed, checks)
	if err != nil {
		return err
	}
	res.failed += len(bad)
	res.mismatches = append(res.mismatches, bad...)
	res.note("correctness: %d of %d requests failed; %d sampled reads matched the reference byte for byte, %d did not",
		res.failed-len(bad), res.attempted, checked-len(bad), len(bad))
	res.note("digest of the first %d responses: %s", prefix, digest(lp.warm[:prefix]))
	keys := make([]string, 0, len(lp.exact))
	for k := range lp.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, lp.exact[k])
	}
	res.note("exact counters over the first %d requests: %s", prefix, strings.Join(parts, " "))
	return nil
}

// endToEnd derives the end-to-end metrics from a timed loop.
func endToEnd(res *result, lp *loop, setupS []float64) {
	byFamily := map[string][]float64{}
	byKind := map[string][]float64{}
	var reads []float64
	interactive := 0
	for _, o := range lp.outs {
		byKind[o.req.Kind] = append(byKind[o.req.Kind], o.ms)
		if o.family == "write" {
			byFamily["write"] = append(byFamily["write"], o.ms)
			continue
		}
		reads = append(reads, o.ms)
		byFamily[o.family] = append(byFamily[o.family], o.ms)
		if o.err == nil && o.ms <= interactiveMs {
			interactive++
		}
	}
	n := len(lp.outs)
	res.add("setup_s", median(setupS), "s")
	res.add("throughput_rps", float64(n)/lp.elapsed.Seconds(), "req/s")
	res.add("read_p50_ms", quantile(reads, 0.5), "ms")
	res.add("read_p90_ms", quantile(reads, 0.9), "ms")
	res.add("interactive_share", float64(interactive)/float64(len(reads)), "ratio")
	res.add("mapview_p50_ms", quantile(byFamily["mapview"], 0.5), "ms")
	res.add("png_p50_ms", quantile(byFamily["png"], 0.5), "ms")
	res.add("polygon_p50_ms", quantile(byFamily["polygon"], 0.5), "ms")
	res.add("write_p50_ms", quantile(byFamily["write"], 0.5), "ms")
	res.add("write_p90_ms", quantile(byFamily["write"], 0.9), "ms")
	res.add("alloc_mb_per_op", float64(lp.allocBytes)/float64(n)/(1<<20), "MiB")
	res.add("heap_live_mb", float64(lp.heapLive)/(1<<20), "MiB")
	res.note("setup_s samples: %v", setupS)
	res.note("lead-in: %d requests; timed phase: %d requests in %.2fs; fail_ratio %.4f ratio",
		len(lp.warm), n, lp.elapsed.Seconds(), float64(res.failed)/float64(res.attempted))
	res.note("samples behind each percentile: read=%d mapview=%d png=%d polygon=%d write=%d other=%d",
		len(reads), len(byFamily["mapview"]), len(byFamily["png"]), len(byFamily["polygon"]),
		len(byFamily["write"]), len(byFamily["other"]))
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for i, k := range kinds {
		kinds[i] = fmt.Sprintf("%s=%.2f(n=%d)", k, median(byKind[k]), len(byKind[k]))
	}
	res.note("median ms by request kind: %s", strings.Join(kinds, " "))
	for _, m := range res.metrics {
		res.note("%-18s %12.4f %s", m.name, m.value, m.unit)
	}
}

// quantile is the q-quantile of xs, interpolating between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
