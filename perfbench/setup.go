package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/segment"
	"repro/internal/urbane"
	"repro/internal/workload"
)

// inputs are the generated data sets and layers. They are made once per run
// from the seed, before and outside the timed set-up.
type inputs struct {
	points []*data.PointSet // taxi, 311, photos
	layers []*data.RegionSet
}

// generate builds the default catalog at the given taxi scale: 311 and
// photos are a quarter and an eighth of it, as cmd/urbane-server makes them.
func generate(taxi int, seed int64) *inputs {
	scene := workload.NYC(taxi, seed)
	return &inputs{
		points: []*data.PointSet{
			scene.Taxi,
			data.Generate(data.NYC311Config(taxi/4, 2009, time.January, seed+10)),
			data.Generate(data.NYCPhotosConfig(taxi/8, 2009, time.January, seed+20)),
		},
		layers: []*data.RegionSet{scene.Neighborhoods, scene.Tracts, scene.Grid},
	}
}

// newJoiner is the raster joiner cmd/urbane-server builds by default: the
// exact hybrid join at 1024 px on a device with the default span cache.
func newJoiner() *core.RasterJoin {
	dev := gpu.New(gpu.WithSpanCacheBytes(gpu.DefaultSpanCacheBytes))
	return core.NewRasterJoin(core.WithDevice(dev),
		core.WithMode(core.Accurate), core.WithResolution(1024))
}

// env is one set-up program: a framework configured for a workload and the
// server in front of it.
type env struct {
	f      *urbane.Framework
	srv    *urbane.Server
	dev    *gpu.Device
	stores []*segment.Store
	// segBytes is the size of each segment file, by data set.
	segBytes map[string]int64
	// gbBuild is the time the warm-up spent in first geoblocks Store.Get
	// calls, which build the pyramids.
	gbBuild time.Duration
}

// build sets the program up for sp over in. A reference env is what
// outputs are checked against: in RAM, unsharded, without the query-result
// cache, and otherwise configured and warmed up like the env under test.
// The warm-up matters: a geoblocks pyramid patched by appends sums in a
// different order than one built after them, so only a reference that
// builds its pyramids at the same point agrees byte for byte. Segment
// files go to dir.
func build(ctx context.Context, sp spec, in *inputs, dir string, reference bool) (*env, error) {
	rj := newJoiner()
	e := &env{f: urbane.New(rj), dev: rj.Device(), segBytes: map[string]int64{}}
	for _, ps := range in.points {
		if err := e.f.AddPointSet(ps); err != nil {
			return nil, err
		}
	}
	for _, rs := range in.layers {
		if err := e.f.AddRegionSet(rs); err != nil {
			return nil, err
		}
	}
	if sp.shards > 0 && !reference {
		e.f.EnableSharding(sp.shards)
	}
	if sp.geoblocks {
		e.f.EnableGeoBlocks(0)
	}
	if sp.incremental {
		e.f.EnableIncremental(sp.snap, 0, 0)
	}
	opts := []urbane.ServerOption{urbane.WithTimeSnap(sp.snap)}
	if reference {
		opts = append(opts, urbane.WithoutCache())
	}
	if !reference {
		for _, name := range sp.segmented {
			if err := e.attachSegment(name, dir, sp.segCacheBytes); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	e.srv = urbane.NewServer(e.f, opts...)
	if err := e.warmUp(ctx, in); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// attachSegment writes the named data set to a segment file, opens it with
// the given block-cache budget and attaches it to the framework.
func (e *env) attachSegment(name, dir string, cacheBytes int64) error {
	ps, ok := e.f.PointSet(name)
	if !ok {
		return fmt.Errorf("segment: unknown data set %q", name)
	}
	path := filepath.Join(dir, name+".useg")
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := segment.Write(file, ps); err != nil {
		file.Close()
		return fmt.Errorf("writing segment %s: %w", path, err)
	}
	if err := file.Close(); err != nil {
		return err
	}
	st, err := segment.Open(path, segment.WithCacheBytes(cacheBytes))
	if err != nil {
		return err
	}
	e.stores = append(e.stores, st)
	if info, err := os.Stat(path); err == nil {
		e.segBytes[name] = info.Size()
	}
	return e.f.AttachSegments(name, st)
}

// warmUp forces the lazy builds a user would otherwise pay on first touch:
// the geoblocks pyramids, and per data set and layer the compiled region
// spans and the shard layouts. It calls the framework directly, so the
// query-result cache stays empty.
func (e *env) warmUp(ctx context.Context, in *inputs) error {
	if g := e.f.GeoBlocks(); g != nil {
		// Align the store with the catalog version first, or the first query
		// would drop the pyramids built here.
		g.Store().SetGeneration(e.f.Version())
		start := time.Now()
		for _, ps := range in.points {
			if _, err := g.Store().Get(ctx, ps); err != nil {
				return err
			}
		}
		e.gbBuild = time.Since(start)
	}
	first := workload.Jan2009().Start
	for _, ps := range in.points {
		for _, rs := range in.layers {
			for _, t := range []*core.TimeFilter{nil, {Start: first, End: first + 3600}} {
				req := urbane.MapViewRequest{Dataset: ps.Name, Layer: rs.Name, Agg: core.Count, Time: t}
				if _, err := e.f.MapViewContext(ctx, req); err != nil {
					return fmt.Errorf("warm-up %s x %s: %w", ps.Name, rs.Name, err)
				}
			}
		}
	}
	return nil
}

func (e *env) close() {
	for _, st := range e.stores {
		st.Close()
	}
	e.stores = nil
}

// listener serves a handler on a loopback port until stop.
type listener struct {
	hs   *http.Server
	done chan error
	url  string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A shutdown that times out leaves connections to the serve loop's
	// return; the benchmark has nothing else to do about it.
	_ = l.hs.Shutdown(ctx)
	<-l.done
}
