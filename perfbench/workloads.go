package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"

	"repro/internal/data"
	"repro/internal/workload"
)

// spec is one named workload: the server configuration it runs against and
// the seeded request stream its one client replays. BENCHMARK.json and
// WORKLOADS.md say why each was chosen and which layers it should move.
type spec struct {
	name string
	// snap is the server's time-snap granularity in seconds (1 = off). With
	// incremental on it is also the slab width.
	snap        int64
	incremental bool
	geoblocks   bool
	// shards > 0 routes ad-hoc raster execution through a scatter-gather
	// coordinator with that many spatial shards.
	shards int
	// segmented names the data sets served from USEG segment files whose
	// decoded-block cache holds segCacheBytes each.
	segmented     []string
	segCacheBytes int64
	newStream     func(seed int64, sc schema) stream
}

// stream is a deterministic, endless request sequence: the same seed always
// yields the same requests.
type stream interface {
	Next() workload.HTTPRequest
}

var specs = []spec{
	{
		name: "adhoc", snap: 1,
		newStream: func(seed int64, sc schema) stream {
			mix := workload.NewMix(workload.ServerMixConfig(), seed)
			return &scheduled{
				mixes: []*workload.Mix{mix},
				apps:  []*workload.Appender{appender([]string{"photos"}, sc, seed+1)},
				rng:   rand.New(rand.NewSource(seed + 2)),
				slots: adhocSlots,
			}
		},
	},
	{
		name: "session", snap: 3600, incremental: true, geoblocks: true,
		newStream: newSession,
	},
	{
		name: "ingest", snap: 3600, incremental: true, geoblocks: true,
		newStream: func(seed int64, sc schema) stream {
			s := &scheduled{slots: ingestSlots}
			for i, ds := range []string{"taxi", "311"} {
				cfg := workload.ServerMixConfig()
				cfg.Datasets = []string{ds}
				s.mixes = append(s.mixes, workload.NewMix(cfg, seed+int64(i)))
				s.apps = append(s.apps, appender([]string{ds}, sc, seed+int64(10+i)))
			}
			return s
		},
	},
	{
		name: "outofcore", snap: 1, shards: 2,
		segmented:     []string{"taxi", "311"},
		segCacheBytes: 4 << 20,
		newStream: func(seed int64, sc schema) stream {
			cfg := workload.ServerMixConfig()
			cfg.Datasets = []string{"taxi", "311"}
			return &scheduled{
				mixes: []*workload.Mix{workload.NewMix(cfg, seed)},
				apps:  []*workload.Appender{appender([]string{"photos"}, sc, seed+1)},
				rng:   rand.New(rand.NewSource(seed + 2)),
				slots: outofcoreSlots,
			}
		},
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// appender returns a seeded append stream over datasets: a live feed of
// new points inside each set's own extent. The ingest endpoint needs every
// column, so the schema comes from the generated data.
func appender(datasets []string, sc schema, seed int64) *workload.Appender {
	cfg := workload.ServerMixConfig()
	cfg.Datasets = datasets
	cfg.Attrs = sc.attrs
	// Appender draws inside one box for all its sets; each feed here has one.
	cfg.Bounds = sc.bounds[datasets[0]]
	return workload.NewAppender(cfg, seed)
}

// schema describes the generated point sets to the append feeds: every
// attribute column, and the extent new points are drawn in.
type schema struct {
	attrs  map[string][]string
	bounds map[string][4]float64
}

func schemaOf(sets []*data.PointSet) schema {
	sc := schema{attrs: map[string][]string{}, bounds: map[string][4]float64{}}
	for _, ps := range sets {
		for _, c := range ps.Attrs {
			sc.attrs[ps.Name] = append(sc.attrs[ps.Name], c.Name)
		}
		b := ps.Bounds()
		sc.bounds[ps.Name] = [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY}
	}
	return sc
}

// slot is one position of a scheduled stream's cycle: a request drawn from
// mixes[src] with the given kind and, where set, data set and layer, or an
// append drawn from apps[src]. plain keeps only requests without filters
// or a time window; fresh skips requests the stream already sent, so the
// query-result cache cannot answer them.
type slot struct {
	kind    string
	src     int
	dataset string
	layer   string
	plain   bool
	fresh   bool
}

const appendKind = "append"

// Each family gets a fixed share of the cycle, and within it a fixed mix of
// data sets and layers, so a per-family median rests on the same cost
// modes in every run and on every seed. workload.Mix alone draws polygons
// and PNGs too rarely, and data sets and layers at random. adhoc leaves out
// choropleths and queries: fresh ones vary tenfold in cost and put read_p90
// on the edge between them, and repeated ones hit the cache.
var adhocSlots = []slot{
	{kind: "mapview", dataset: "taxi", layer: "neighborhoods"},
	{kind: "polygon", dataset: "taxi", plain: true},
	{kind: "tile", dataset: "taxi", fresh: true},
	{kind: "filterheavy", dataset: "311", layer: "tracts"},
	{kind: "tile", dataset: "311", fresh: true},
	{kind: "polygon", dataset: "taxi", plain: true},
	{kind: "heatmap", dataset: "taxi"},
	{kind: appendKind},
	{kind: "mapview", dataset: "taxi", layer: "neighborhoods"},
	{kind: "polygon", dataset: "taxi", plain: true},
	{kind: "tile", dataset: "taxi", fresh: true},
	{kind: "heatmap", dataset: "photos"},
	{kind: "mapview", dataset: "taxi", layer: "neighborhoods"},
	{kind: "polygon", dataset: "taxi", plain: true},
	{kind: "delta", dataset: "311", layer: "neighborhoods"},
	{kind: appendKind},
	{kind: "mapview", dataset: "taxi", layer: "neighborhoods"},
	{kind: "polygon", dataset: "photos", plain: true},
	{kind: "tile", dataset: "taxi", fresh: true},
	{kind: "explore", dataset: "photos", layer: "neighborhoods"},
	{kind: "mapview", dataset: "taxi", layer: "neighborhoods"},
	{kind: "filterheavy", dataset: "taxi", layer: "grid64"},
	{kind: "polygon", dataset: "taxi", plain: true},
	{kind: appendKind},
}

// ingestSlots keeps the shape of workload.Mixed's six-step interleave (read
// A, read B, append, read A, read B, append) with A = taxi and B = 311. Three
// of every four appends go to taxi: an even split would put write_p50 on the
// edge between the two sets' append costs. Map views
// are filter-heavy, a few slabs wide: random wide windows would fold cold
// slabs on most reads and bury the write path this workload is for.
// Unfiltered polygons go through the patched hierarchy. Each family's reads
// mostly hit one data set, so its median stays inside one cost mode, and no
// frequent kind sits near the interactive limit, where a small shift in
// speed would swing interactive_share.
var ingestSlots = []slot{
	{kind: "filterheavy", src: 0, layer: "neighborhoods"},
	{kind: "tile", src: 1},
	{kind: appendKind, src: 0},
	{kind: "polygon", src: 0, plain: true},
	{kind: "heatmap", src: 1},
	{kind: appendKind, src: 0},
	{kind: "filterheavy", src: 0, layer: "neighborhoods"},
	{kind: "tile", src: 1},
	{kind: appendKind, src: 0},
	{kind: "polygon", src: 0, plain: true},
	{kind: "filterheavy", src: 1, layer: "tracts"},
	{kind: appendKind, src: 1},
	{kind: "filterheavy", src: 0, layer: "neighborhoods"},
	{kind: "tile", src: 1},
	{kind: appendKind, src: 0},
	{kind: "polygon", src: 0, plain: true},
	{kind: "heatmap", src: 1},
	{kind: appendKind, src: 0},
	{kind: "tile", src: 0},
	{kind: "filterheavy", src: 1, layer: "neighborhoods"},
	{kind: appendKind, src: 0},
	{kind: "heatmap", src: 0},
	{kind: "heatmap", src: 1},
	{kind: appendKind, src: 1},
}

// outofcoreSlots scans taxi's segments in full only in choropleths, which
// stay well above the interactive limit; polygons scan 311's.
var outofcoreSlots = []slot{
	{kind: "filterheavy", dataset: "taxi", layer: "neighborhoods"},
	{kind: "polygon", dataset: "311", plain: true},
	{kind: "tile", dataset: "taxi", fresh: true},
	{kind: "filterheavy", dataset: "taxi", layer: "neighborhoods"},
	{kind: "mapview", dataset: "taxi", layer: "neighborhoods"},
	{kind: "choropleth", fresh: true},
	{kind: "filterheavy", dataset: "311", layer: "tracts"},
	{kind: appendKind},
	{kind: "filterheavy", dataset: "taxi", layer: "neighborhoods"},
	{kind: "polygon", dataset: "311", plain: true},
	{kind: "tile", dataset: "taxi", fresh: true},
	{kind: "filterheavy", dataset: "taxi", layer: "neighborhoods"},
	{kind: "filterheavy", dataset: "311", layer: "neighborhoods"},
	{kind: "filterheavy", dataset: "taxi", layer: "neighborhoods"},
	{kind: "polygon", dataset: "311", plain: true},
	{kind: appendKind},
}

// scheduled replays a fixed cycle of slots, drawing each read from a seeded
// workload.Mix until it yields one that fits the slot. Fresh tiles come
// from rng instead: the Mix's zoom levels offer too few to stay fresh.
type scheduled struct {
	mixes []*workload.Mix
	apps  []*workload.Appender
	rng   *rand.Rand
	slots []slot
	i     int
	sent  map[string]bool
}

// maxDraws bounds the search for a fresh request; once a slot's variety is
// used up it takes a repeat.
const maxDraws = 20000

func (s *scheduled) Next() workload.HTTPRequest {
	sl := s.slots[s.i%len(s.slots)]
	s.i++
	if sl.kind == appendKind {
		return s.apps[sl.src].Next()
	}
	if s.sent == nil {
		s.sent = map[string]bool{}
	}
	next := s.mixes[sl.src].Next
	if sl.kind == "tile" && sl.fresh {
		next = func() workload.HTTPRequest { return s.tile(sl.dataset) }
	}
	for draws := 0; ; draws++ {
		r := next()
		if sl.fits(r) && (!sl.fresh || !s.sent[r.Path+r.Body] || draws > maxDraws) {
			s.sent[r.Path+r.Body] = true
			return r
		}
	}
}

// tile draws a density tile over NYC at zoom 12 to 14, the same extent the
// Mix's tiles cover at zoom 10 to 12; there are over a thousand per set.
func (s *scheduled) tile(dataset string) workload.HTTPRequest {
	z := 12 + s.rng.Intn(3)
	x := 301<<(z-10) + s.rng.Intn(1<<(z-9))
	y := 385<<(z-10) + s.rng.Intn(1<<(z-9))
	return workload.HTTPRequest{Method: http.MethodGet, Kind: "tile",
		Path: fmt.Sprintf("/api/tile/%d/%d/%d.png?dataset=%s", z, x, y, dataset)}
}

func (sl slot) fits(r workload.HTTPRequest) bool {
	return r.Kind == sl.kind &&
		(sl.dataset == "" || names(r, "dataset", sl.dataset) ||
			strings.Contains(r.Body, fmt.Sprintf(`"datasets":[%q]`, sl.dataset)) ||
			strings.Contains(r.Body, " FROM "+sl.dataset+", ")) &&
		(sl.layer == "" || names(r, "layer", sl.layer) || strings.Contains(r.Body, ", "+sl.layer+" ")) &&
		!(sl.plain && (strings.Contains(r.Body, `"time"`) || strings.Contains(r.Body, `"filters"`)))
}

// names reports whether r sets the field to value, in its JSON body or its
// query string.
func names(r workload.HTTPRequest, field, value string) bool {
	return strings.Contains(r.Body, fmt.Sprintf(`%q:%q`, field, value)) ||
		strings.Contains(r.Path+"&", field+"="+value+"&")
}

// draw returns the next request of mix that keep accepts.
func draw(mix *workload.Mix, keep func(workload.HTTPRequest) bool) workload.HTTPRequest {
	for {
		if r := mix.Next(); keep(r) {
			return r
		}
	}
}

// session is one analyst's working set. Three linked map panels share a
// time slider showing one day; each step moves it one slab to the right and
// re-asks every panel, so only one new slab per panel is joined. Between
// steps the analyst pans over the same map tiles, revisits an earlier panel
// state, draws unfiltered polygons and re-asks a recent one, while a
// background feed appends to a data set no panel reads. Slider steps must
// move by one slab: random windows would make every step fold cold slabs.
type session struct {
	rng    *rand.Rand
	start  int64
	tMin   int64
	tMax   int64
	step   int
	views  []workload.HTTPRequest // the current step's panel requests
	seen   []workload.HTTPRequest // earlier panel requests
	polys  []workload.HTTPRequest // earlier fresh polygons
	shapes *workload.Mix
	app    *workload.Appender
}

type panel struct{ dataset, layer, agg, attr string }

var panels = []panel{
	{"taxi", "neighborhoods", "count", ""},
	{"311", "neighborhoods", "count", ""},
	{"taxi", "tracts", "avg", "fare"},
}

const (
	sessionSlab  = 3600
	sessionWidth = 24 * sessionSlab // the slider shows one day
	sessionKeep  = 48               // how far back a revisit reaches
)

// sessionScript is one slider step. Fixed shares keep each family's median
// inside one cost mode: most reads are answered from a cache, most map
// views fold one new slab, and most polygons are fresh.
var sessionScript = []string{
	"panel", "tile", "tile", "panel", "tile", "tile", "panel", "revisit",
	"polygon", "choropleth", "polygon", "repolygon", "tile", "tile", appendKind,
}

func newSession(seed int64, sc schema) stream {
	cfg := workload.ServerMixConfig()
	cfg.Datasets = []string{"taxi", "311"}
	rng := rand.New(rand.NewSource(seed))
	s := &session{
		rng:    rng,
		tMin:   cfg.TimeMin,
		tMax:   cfg.TimeMax,
		shapes: workload.NewMix(cfg, seed+1),
		app:    appender([]string{"photos"}, sc, seed+2),
	}
	s.start = s.tMin + rng.Int63n((s.tMax-s.tMin)/sessionSlab/2)*sessionSlab
	return s
}

func (s *session) Next() workload.HTTPRequest {
	pos := s.step % len(sessionScript)
	s.step++
	if pos == 0 {
		s.slide()
	}
	switch sessionScript[pos] {
	case "panel":
		r := s.views[0]
		s.views = s.views[1:]
		s.seen = keep(s.seen, r, sessionKeep)
		return r
	case "tile":
		p := panels[s.rng.Intn(len(panels))]
		return workload.HTTPRequest{Method: http.MethodGet, Kind: "tile",
			Path: fmt.Sprintf("/api/tile/11/%d/%d.png?dataset=%s", 602+s.rng.Intn(4), 770+s.rng.Intn(4), p.dataset)}
	case "choropleth":
		p := panels[s.rng.Intn(len(panels))]
		return workload.HTTPRequest{Method: http.MethodGet, Kind: "choropleth",
			Path: fmt.Sprintf("/api/render/choropleth.png?dataset=%s&layer=%s&agg=%s&attr=%s&w=%d",
				p.dataset, p.layer, p.agg, p.attr, 128<<s.rng.Intn(2))}
	case "revisit":
		return s.seen[s.rng.Intn(len(s.seen))]
	case "polygon":
		r := draw(s.shapes, func(r workload.HTTPRequest) bool {
			return r.Kind == "polygon" && !strings.Contains(r.Body, `"filters"`) && !strings.Contains(r.Body, `"time"`)
		})
		s.polys = keep(s.polys, r, 16)
		return r
	case "repolygon":
		return s.polys[s.rng.Intn(len(s.polys))]
	default:
		return s.app.Next()
	}
}

// slide moves the shared window one slab right, wrapping to the start of
// the month, and queues each panel's map view for the new window.
func (s *session) slide() {
	s.start += sessionSlab
	if s.start+sessionWidth > s.tMax {
		s.start = s.tMin
	}
	s.views = s.views[:0]
	for _, p := range panels {
		body := fmt.Sprintf(`{"dataset":%q,"layer":%q,"agg":%q,"attr":%q,"time":{"start":%d,"end":%d}}`,
			p.dataset, p.layer, p.agg, p.attr, s.start, s.start+sessionWidth)
		s.views = append(s.views, workload.HTTPRequest{Method: http.MethodPost, Path: "/api/mapview", Body: body, Kind: "mapview"})
	}
}

// keep appends r to xs, dropping the oldest beyond n.
func keep(xs []workload.HTTPRequest, r workload.HTTPRequest, n int) []workload.HTTPRequest {
	xs = append(xs, r)
	if len(xs) > n {
		xs = xs[1:]
	}
	return xs
}
