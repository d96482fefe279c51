package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geoblocks"
	"repro/internal/geom"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/segment"
	"repro/internal/shard"
	"repro/internal/tcache"
	"repro/internal/trace"
	"repro/internal/urbane"
	"repro/internal/workload"
)

var getStats = workload.HTTPRequest{Method: "GET", Path: "/api/stats", Kind: "stats"}

// probeSample is how many requests of each family the traced run re-issues
// as direct calls into the layers.
const probeSample = 12

// traced is the --trace 1 run. It drives the same seed twice on freshly set
// up programs, half the time each: once untraced, once with spans around
// every request and every ServeHTTP call, so the throughput ratio is the
// tracing overhead. Then it times direct calls into each layer on the
// traced phase's requests and reports the per-layer metrics.
func traced(ctx context.Context, sp spec, cfg config, in *inputs, sc schema, progs *programs, res *result) error {
	e, err := progs.next()
	if err != nil {
		return err
	}
	plain, err := drive(e, sp.newStream(cfg.seed, sc), cfg.phase(cfg.timed/2), nil, nil)
	if err != nil {
		return err
	}
	if e, err = progs.next(); err != nil {
		return err
	}
	noteSegments(res, sp, e)
	rec := newRecorder()
	st := sp.newStream(cfg.seed, sc)
	var before layerSnap
	lp, err := drive(e, st, cfg.phase(cfg.timed/2), rec, func() { before = snapLayers(e) })
	if err != nil {
		return err
	}
	after := snapLayers(e)
	if err := check(ctx, sp, cfg, in, lp, res); err != nil {
		return err
	}
	for _, o := range plain.all() {
		res.attempted++
		if o.err != nil {
			res.failed++
			res.mismatches = append(res.mismatches, o.err.Error())
		}
	}

	p := &prober{ctx: ctx, sp: sp, cfg: cfg, e: e, rec: rec, res: res, twin: newJoiner()}
	p.loopLayers(lp, before, after)
	if err := p.views(lp.outs); err != nil {
		return err
	}
	if err := p.polygons(lp.outs); err != nil {
		return err
	}
	if err := p.appends(st); err != nil {
		return err
	}
	if err := p.blockLoad(); err != nil {
		return err
	}
	res.add("bench.trace_overhead_ratio", rps(lp)/rps(plain), "ratio")
	res.note("tracing overhead: traced %.2f req/s against untraced %.2f req/s", rps(lp), rps(plain))
	res.note("admission control is not measured: with one client it never queues")
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", sp.name, cfg.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	res.note("%d spans written to %s", len(rec.spans), path)
	for _, m := range res.metrics {
		res.note("%-32s %14.4f %s", m.name, m.value, m.unit)
	}
	return nil
}

func rps(lp *loop) float64 { return float64(len(lp.outs)) / lp.elapsed.Seconds() }

// layerSnap holds the program's cumulative layer counters at one instant.
type layerSnap struct {
	q              qcache.Stats
	epochEvictions uint64
	spanHits       uint64
	spanMisses     uint64
	seg            segment.CacheStats
	scanned        int64
	pruned         int64
	reused         uint64
	recomputed     uint64
	shards         []shard.NodeStats
}

func snapLayers(e *env) layerSnap {
	s := layerSnap{q: e.srv.CacheStats()}
	var stats struct {
		Incremental struct {
			EpochEvictions uint64 `json:"epochEvictions"`
		} `json:"incremental"`
	}
	if _, body := serveLocal(e.srv, getStats); json.Unmarshal(body, &stats) == nil {
		s.epochEvictions = stats.Incremental.EpochEvictions
	}
	sc := e.dev.SpanCache().Stats()
	s.spanHits, s.spanMisses = sc.Hits, sc.Misses
	for _, st := range e.stores {
		s.seg.Add(st.CacheStats())
	}
	s.scanned, s.pruned = core.ScanStats()
	if j := e.f.Incremental(); j != nil {
		s.reused, s.recomputed = j.SlabsReused(), j.SlabsRecomputed()
	}
	if c := e.f.Sharding(); c != nil {
		s.shards = c.Stats()
	}
	return s
}

// prober times direct calls into the layers and adds the per-layer metrics.
type prober struct {
	ctx  context.Context
	sp   spec
	cfg  config
	e    *env
	rec  *recorder
	res  *result
	twin *core.RasterJoin // a joiner with the server's options and its own device
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loopLayers derives the metrics the traced loop itself measures: the
// transport and serve split of each request, and counter deltas.
func (p *prober) loopLayers(lp *loop, b, a layerSnap) {
	spans := p.rec.byID()
	self := p.rec.selfMs()
	serveOf := map[int]float64{}
	for _, s := range spans {
		if s.Name == "urbane.serve" {
			serveOf[s.Parent] = s.ms()
		}
	}
	var transport, serve []float64
	reads := 0
	var patched, dropped, appends float64
	for _, o := range lp.outs {
		if o.family == "write" {
			var info struct {
				GeoBlocksPatched bool `json:"geoBlocksPatched"`
				SlabsDropped     int  `json:"slabsDropped"`
			}
			if json.Unmarshal(o.body, &info) == nil {
				appends++
				dropped += float64(info.SlabsDropped)
				if info.GeoBlocksPatched {
					patched++
				}
			}
			continue
		}
		reads++
		transport = append(transport, self[o.span])
		serve = append(serve, serveOf[o.span])
	}
	r := p.res
	r.add("http.transport_ms", median(transport), "ms")
	r.add("urbane.serve_ms", median(serve), "ms")
	hits, misses := float64(a.q.Hits-b.q.Hits), float64(a.q.Misses-b.q.Misses)
	r.add("qcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.add("qcache.coalesced", float64(a.q.Coalesced-b.q.Coalesced), "count")
	r.add("qcache.epoch_evictions", float64(a.epochEvictions-b.epochEvictions), "count")
	sh, sm := float64(a.spanHits-b.spanHits), float64(a.spanMisses-b.spanMisses)
	r.add("raster.span_hit_ratio", ratio(sh, sh+sm), "ratio")
	ru, rc := float64(a.reused-b.reused), float64(a.recomputed-b.recomputed)
	r.add("tcache.slab_reuse_ratio", ratio(ru, ru+rc), "ratio")
	r.add("tcache.slabs_dropped_per_append", ratio(dropped, appends), "count")
	r.add("geoblocks.patch_ratio", ratio(patched, appends), "ratio")
	sc, pr := float64(a.scanned-b.scanned), float64(a.pruned-b.pruned)
	r.add("segment.blocks_scanned_per_op", ratio(sc, float64(reads)), "count")
	r.add("segment.prune_ratio", ratio(pr, sc+pr), "ratio")
	bh, bm := float64(a.seg.Hits-b.seg.Hits), float64(a.seg.Misses-b.seg.Misses)
	r.add("segment.block_hit_ratio", ratio(bh, bh+bm), "ratio")
	r.add("segment.evictions", float64(a.seg.Evictions-b.seg.Evictions), "count")
	imbalance := 0.0
	if len(a.shards) > 0 {
		var sum, most float64
		for i := range a.shards {
			pts := float64(a.shards[i].Points - b.shards[i].Points)
			sum += pts
			most = max(most, pts)
		}
		imbalance = ratio(most, sum/float64(len(a.shards)))
	}
	r.add("shard.imbalance", imbalance, "ratio")
	r.note("traced loop: %d requests, %d reads; qcache %v hits %v misses; %d appends", len(lp.outs), reads, hits, misses, int(appends))
}

// sample returns the first n distinct requests of the family.
func sample(outs []outcome, fam string, n int) []outcome {
	seen := map[string]bool{}
	var out []outcome
	for _, o := range outs {
		key := o.req.Path + o.req.Body
		if o.family != fam || seen[key] || len(out) == n {
			continue
		}
		seen[key] = true
		out = append(out, o)
	}
	return out
}

type viewWire struct {
	Dataset string `json:"dataset"`
	Layer   string `json:"layer"`
	Agg     string `json:"agg"`
	Attr    string `json:"attr"`
	Filters []struct {
		Attr string  `json:"attr"`
		Min  float64 `json:"min"`
		Max  float64 `json:"max"`
	} `json:"filters"`
	Time *core.TimeFilter `json:"time"`
}

// coreRequest rebuilds the core request the server runs for a mapview or
// polygon body, with the server's time snapping and the data set's
// attached source.
func (p *prober) coreRequest(body string, regions *data.RegionSet) (core.Request, viewWire, error) {
	var w viewWire
	if err := json.Unmarshal([]byte(body), &w); err != nil {
		return core.Request{}, w, err
	}
	ps, ok := p.e.f.PointSet(w.Dataset)
	if !ok {
		return core.Request{}, w, fmt.Errorf("unknown data set %q", w.Dataset)
	}
	if regions == nil {
		if regions, ok = p.e.f.RegionSet(w.Layer); !ok {
			return core.Request{}, w, fmt.Errorf("unknown layer %q", w.Layer)
		}
	}
	agg, err := parseAgg(w.Agg)
	if err != nil {
		return core.Request{}, w, err
	}
	req := core.Request{Points: ps, Regions: regions, Agg: agg, Attr: w.Attr}
	for _, f := range w.Filters {
		req.Filters = append(req.Filters, core.Filter{Attr: f.Attr, Min: f.Min, Max: f.Max})
	}
	if w.Time != nil {
		req.Time = qcache.SnapTime(w.Time, p.sp.snap)
	}
	if src, ok := p.e.f.PointSource(w.Dataset); ok {
		req.Source = src
	}
	return req, w, nil
}

func parseAgg(s string) (core.Agg, error) {
	for _, a := range []core.Agg{core.Count, core.Sum, core.Avg, core.Min, core.Max} {
		if strings.EqualFold(a.String(), s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown aggregate %q", s)
}

// views probes the mapview requests: the framework's view, the raster
// join on a twin joiner and its region pass alone, the scatter-gather
// coordinator, the slab fold, the query parser and planner, and the PNG
// encoder. Every call runs twice; the first pass lets caches and lazy
// layouts fill, the second is timed.
func (p *prober) views(outs []outcome) error {
	ctx := p.ctx
	coord := p.e.f.Sharding()
	if coord == nil {
		coord = shard.New(p.twin, 2)
	}
	fold := p.e.f.Incremental()
	if fold == nil {
		fold = tcache.New(p.twin, 3600, 0, 0)
	}
	// The handler's self time is taken on a server without the query-result
	// cache over the same framework, right after the view, so both calls
	// find the same caches below them.
	bare := urbane.NewServer(p.e.f, urbane.WithoutCache(), urbane.WithTimeSnap(p.sp.snap))
	planner := query.NewPlanner(p.twin)
	planner.GeoBlocks = p.e.f.GeoBlocks()
	planner.Slabs = p.e.f.Incremental()
	if c := p.e.f.Sharding(); c != nil {
		planner.Shards = c
	}
	var view, handler, join, region, pointPass, shardJ, folds, png, parse, plan []float64
	var joinSum, shardSum, passSum float64
	var points, frags, passes float64
	views := sample(outs, "mapview", probeSample)
	for pass := 0; pass < 2; pass++ {
		timed := pass == 1
		for _, o := range views {
			req, w, err := p.coreRequest(o.req.Body, nil)
			if err != nil {
				return err
			}
			root := p.rec.reserve()
			t0 := time.Now()
			mv := urbane.MapViewRequest{Dataset: w.Dataset, Layer: w.Layer, Agg: req.Agg, Attr: req.Attr,
				Filters: req.Filters, Time: req.Time}
			vms, err := p.rec.time("urbane.view", root, root, func() error {
				_, err := p.e.f.MapViewContext(ctx, mv)
				return err
			})
			if err != nil {
				return err
			}
			hms, err := p.rec.time("urbane.serve_uncached", root, root, func() error {
				if status, body := serveLocal(bare, o.req); status != 200 {
					return fmt.Errorf("uncached serve of %s: status %d: %s", o.req.Path, status, body)
				}
				return nil
			})
			if err != nil {
				return err
			}
			st0 := p.twin.Device().Stats()
			var out *core.Result
			jms, err := p.rec.time("core.join", root, root, func() error {
				out, err = p.twin.JoinContext(ctx, req)
				return err
			})
			if err != nil {
				return err
			}
			st1 := p.twin.Device().Stats()
			empty := req
			empty.Time = &core.TimeFilter{Start: 0, End: 1}
			rms, err := p.rec.time("core.region_pass", root, root, func() error {
				_, err := p.twin.JoinContext(ctx, empty)
				return err
			})
			if err != nil {
				return err
			}
			sms, err := p.rec.time("shard.join", root, root, func() error {
				_, err := coord.JoinContext(ctx, req)
				return err
			})
			if err != nil {
				return err
			}
			fr := req
			if fr.Time != nil {
				fr.Time = qcache.SnapTime(fr.Time, fold.Gran())
			}
			fr.Source = nil
			if fold.CanServe(fr) == nil {
				fms, err := p.rec.time("tcache.fold", root, root, func() error {
					_, err := fold.JoinContext(ctx, fr)
					return err
				})
				if err != nil {
					return err
				}
				if timed {
					folds = append(folds, fms)
				}
			}
			values := make([]float64, len(req.Regions.Regions))
			for k := range values {
				values[k] = out.Value(k, req.Agg)
			}
			pms, err := p.rec.time("render.png", root, root, func() error {
				img, err := render.Choropleth(req.Regions, values, 256, render.BlueRamp)
				if err != nil {
					return err
				}
				var buf bytes.Buffer
				return render.EncodePNG(&buf, img)
			})
			if err != nil {
				return err
			}
			q := query.Query{Agg: req.Agg, Attr: req.Attr, Points: w.Dataset, Regions: w.Layer,
				Filters: req.Filters, Time: req.Time}
			stmt := q.String()
			const reps = 200
			parsed, pus, err := repeat(reps, func() (query.Query, error) { return query.Parse(stmt) })
			if err != nil {
				return err
			}
			_, plus, err := repeat(reps, func() (*query.Plan, error) { return planner.Plan(parsed, p.e.f) })
			if err != nil {
				return err
			}
			p.rec.add(root, "probe.mapview", -1, root, t0, time.Now())
			if !timed {
				continue
			}
			view = append(view, vms)
			handler = append(handler, hms-vms)
			join = append(join, jms)
			region = append(region, rms)
			pointPass = append(pointPass, jms-rms)
			shardJ = append(shardJ, sms)
			png = append(png, pms)
			parse = append(parse, pus)
			plan = append(plan, plus)
			joinSum += jms
			shardSum += sms
			passSum += jms - rms
			points += float64(st1.PointsIn - st0.PointsIn)
			frags += float64(st1.FragmentsShaded - st0.FragmentsShaded)
			passes += float64(st1.Passes - st0.Passes)
		}
	}
	n := float64(len(views))
	r := p.res
	r.add("urbane.view_ms", median(view), "ms")
	r.add("urbane.handler_self_ms", median(handler), "ms")
	r.add("query.parse_us", median(parse), "us")
	r.add("query.plan_us", median(plan), "us")
	r.add("core.join_ms", median(join), "ms")
	r.add("core.region_pass_ms", median(region), "ms")
	r.add("core.point_pass_ms", median(pointPass), "ms")
	r.add("gpu.points_per_op", ratio(points, n), "count")
	r.add("gpu.fragments_per_op", ratio(frags, n), "count")
	r.add("gpu.passes_per_op", ratio(passes, n), "count")
	r.add("gpu.ns_per_point", ratio(passSum*1e6, points), "ns")
	r.add("render.png_ms", median(png), "ms")
	r.add("tcache.fold_ms", median(folds), "ms")
	r.add("shard.join_ms", median(shardJ), "ms")
	r.add("shard.overhead_ratio", ratio(shardSum, joinSum), "ratio")
	r.note("view probes: %d map views, %d of them decompose into slabs", len(views), len(folds))
	return nil
}

// repeat calls f reps times and returns its last result and the mean time
// per call in microseconds.
func repeat[T any](reps int, f func() (T, error)) (T, float64, error) {
	var v T
	var err error
	start := time.Now()
	for i := 0; i < reps; i++ {
		if v, err = f(); err != nil {
			return v, 0, err
		}
	}
	return v, float64(time.Since(start)) / float64(reps) / float64(time.Microsecond), nil
}

// polygons probes the hierarchy on the workload's polygons with filters
// and time dropped, since only unfiltered polygons use it. Without
// geoblocks on the server, a twin engine is built here and its first
// Store.Get is the build time.
func (p *prober) polygons(outs []outcome) error {
	ctx := p.ctx
	eng := p.e.f.GeoBlocks()
	build := p.e.gbBuild.Seconds()
	if eng == nil {
		eng = geoblocks.NewEngine(p.twin, 0)
		start := time.Now()
		for _, name := range p.e.f.PointSetNames() {
			ps, _ := p.e.f.PointSet(name)
			if _, err := eng.Store().Get(ctx, ps); err != nil {
				return err
			}
		}
		build = time.Since(start).Seconds()
	}
	var joins, fringe, refined []float64
	polys := sample(outs, "polygon", probeSample)
	for pass := 0; pass < 2; pass++ {
		for _, o := range polys {
			var w struct {
				Ring [][2]float64 `json:"ring"`
			}
			if err := json.Unmarshal([]byte(o.req.Body), &w); err != nil {
				return err
			}
			ring := make(geom.Ring, len(w.Ring))
			for i, v := range w.Ring {
				ring[i] = geom.Point{X: v[0], Y: v[1]}
			}
			rs := &data.RegionSet{Name: "polygon", Regions: []data.Region{{ID: 0, Name: "polygon", Poly: geom.NewPolygon(ring)}}}
			req, _, err := p.coreRequest(o.req.Body, rs)
			if err != nil {
				return err
			}
			req.Filters, req.Time, req.Source = nil, nil, nil
			tr := trace.New("probe")
			root := p.rec.reserve()
			ms, err := p.rec.time("geoblocks.join", root, root, func() error {
				_, err := eng.JoinContext(trace.NewContext(ctx, tr), req)
				return err
			})
			if err != nil {
				return err
			}
			if pass == 1 {
				c := tr.Counters()
				joins = append(joins, ms)
				fringe = append(fringe, float64(c["geoblocks.fringe_cells"]))
				refined = append(refined, float64(c["geoblocks.refined_points"]))
			}
		}
	}
	r := p.res
	r.add("geoblocks.join_ms", median(joins), "ms")
	r.add("geoblocks.fringe_cells", mean(fringe), "count")
	r.add("geoblocks.refined_points", mean(refined), "count")
	r.add("geoblocks.build_s", build, "s")
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// appends continues the workload's append stream with direct calls: the
// copy-on-write append alone, then the framework's whole append.
func (p *prober) appends(st stream) error {
	var cow, app []float64
	for len(app) < probeSample {
		r := st.Next()
		if family(r) != "write" {
			continue
		}
		var w struct {
			Dataset string               `json:"dataset"`
			X       []float64            `json:"x"`
			Y       []float64            `json:"y"`
			T       []int64              `json:"t"`
			Attrs   map[string][]float64 `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(r.Body), &w); err != nil {
			return err
		}
		base, ok := p.e.f.PointSet(w.Dataset)
		if !ok {
			return fmt.Errorf("append to unknown data set %q", w.Dataset)
		}
		tail := &data.PointSet{Name: base.Name, X: w.X, Y: w.Y, T: w.T}
		for _, c := range base.Attrs {
			tail.Attrs = append(tail.Attrs, data.Column{Name: c.Name, Values: w.Attrs[c.Name]})
		}
		root := p.rec.reserve()
		cms, err := p.rec.time("data.append_cow", root, root, func() error {
			_, err := base.AppendCOW(tail)
			return err
		})
		if err != nil {
			return err
		}
		ams, err := p.rec.time("urbane.append", root, root, func() error {
			_, err := p.e.f.Append(p.ctx, w.Dataset, tail)
			return err
		})
		if err != nil {
			return err
		}
		cow = append(cow, cms)
		app = append(app, ams)
	}
	p.res.add("urbane.append_ms", median(app), "ms")
	p.res.add("data.append_cow_ms", median(cow), "ms")
	return nil
}

// blockLoad times Store.Block on cold blocks: a store opened with no block
// cache decodes every block it is asked for. Workloads without segments
// get a segment file of the photos set written for the probe.
func (p *prober) blockLoad() error {
	name := "photos"
	if len(p.sp.segmented) > 0 {
		name = p.sp.segmented[0]
	}
	ps, _ := p.e.f.PointSet(name)
	path := filepath.Join(p.cfg.dir, "probe-"+name+".useg")
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := segment.Write(file, ps); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	st, err := segment.Open(path, segment.WithCacheBytes(0))
	if err != nil {
		return err
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(p.cfg.seed))
	var us []float64
	for i := 0; i < 64; i++ {
		b := rng.Intn(st.NumBlocks())
		root := p.rec.reserve()
		ms, err := p.rec.time("segment.block_load", root, root, func() error {
			_, err := st.Block(b)
			return err
		})
		if err != nil {
			return err
		}
		us = append(us, ms*1000)
	}
	p.res.add("segment.block_load_us", median(us), "us")
	return nil
}
