package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/workload"
)

// outcome is one request of the timed loop as the client saw it.
type outcome struct {
	req    workload.HTTPRequest
	family string
	// ms is the client's latency: request bytes out to last response byte in.
	ms float64
	// span is the request's span id in a traced run, -1 otherwise.
	span   int
	status int
	// sum is the digest of the normalized body.
	sum [32]byte
	// body is kept for appends, whose responses the traced run reads.
	body []byte
	err  error
}

// family groups requests for the per-interaction metrics.
func family(r workload.HTTPRequest) string {
	switch {
	case r.Path == "/api/mapview":
		return "mapview"
	case r.Path == "/api/polygon":
		return "polygon"
	case r.Path == "/api/append":
		return "write"
	case strings.HasPrefix(r.Path, "/api/tile/"), strings.HasPrefix(r.Path, "/api/render/"):
		return "png"
	}
	return "other"
}

// normalize drops what legitimately differs between two servers or runs
// before bodies are compared or digested: the observability payloads, and
// the wall-clock elapsedNs the uncached explore endpoint embeds.
func normalize(kind string, body []byte) []byte {
	if observability(kind) {
		return nil
	}
	if kind == "explore" {
		var m map[string]json.RawMessage
		if json.Unmarshal(body, &m) != nil {
			return body
		}
		delete(m, "elapsedNs")
		if norm, err := json.Marshal(m); err == nil {
			return norm
		}
	}
	return body
}

// observability reports whether kind is a counters endpoint, whose bodies
// legitimately differ between servers and runs.
func observability(kind string) bool { return kind == "stats" || kind == "cachestats" }

// loop is one closed-loop run against a set-up env: an untimed lead-in
// and the timed phase after it.
type loop struct {
	// warm holds the lead-in's outcomes, outs the timed phase's.
	warm    []outcome
	outs    []outcome
	elapsed time.Duration
	// allocBytes is the process heap allocated during the timed phase;
	// heapLive the live heap after a forced GC at its end.
	allocBytes uint64
	heapLive   uint64
	// exact holds the layer counters accrued by the first prefix requests.
	exact map[string]int64
}

// phase sizes a loop. The lead-in lasts warm and at least prefix requests;
// caches fill in it, so the timed phase sees the steady state.
type phase struct {
	warm, timed time.Duration
	prefix      int
}

// all returns every outcome, lead-in first.
func (lp *loop) all() []outcome { return append(append([]outcome(nil), lp.warm...), lp.outs...) }

// drive runs st against e over loopback HTTP with one client that waits
// for each response before sending the next request. rec, when non-nil,
// records spans; atStart, when non-nil, runs as the timed phase begins.
func drive(e *env, st stream, ph phase, rec *recorder, atStart func()) (*loop, error) {
	var h http.Handler = e.srv
	if rec != nil {
		h = rec.wrap(h)
	}
	l, err := listen(h)
	if err != nil {
		return nil, err
	}
	defer l.stop()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	res := &loop{}
	base := exactCounters(e)
	for start := time.Now(); len(res.warm) < ph.prefix || time.Since(start) < ph.warm; {
		res.warm = append(res.warm, issue(client, l.url, st.Next(), rec))
		if len(res.warm) == ph.prefix {
			res.exact = diff(exactCounters(e), base)
		}
	}
	if atStart != nil {
		atStart()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for time.Since(start) < ph.timed {
		res.outs = append(res.outs, issue(client, l.url, st.Next(), rec))
	}
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapLive = m1.HeapAlloc
	return res, nil
}

// issue sends one request and checks the response against the API
// contract. Anything but a well-formed 200 is a failure: these workloads
// send only valid requests to a server that sheds nothing.
func issue(client *http.Client, base string, r workload.HTTPRequest, rec *recorder) outcome {
	o := outcome{req: r, family: family(r), span: -1}
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	hr, err := http.NewRequest(r.Method, base+r.Path, body)
	if err != nil {
		o.err = err
		return o
	}
	if r.Body != "" {
		hr.Header.Set("Content-Type", "application/json")
	}
	if rec != nil {
		o.span = rec.reserve()
		hr.Header.Set(spanHeader, strconv.Itoa(o.span))
	}
	start := time.Now()
	resp, err := client.Do(hr)
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	o.ms = msBetween(start, end)
	if rec != nil {
		rec.add(o.span, "http.request", -1, o.span, start, end)
	}
	if err != nil {
		o.err = fmt.Errorf("%s %s: %w", r.Method, r.Path, err)
		return o
	}
	o.status = resp.StatusCode
	o.sum = sha256.Sum256(normalize(r.Kind, b))
	if o.family == "write" {
		o.body = b
	}
	if err := chaos.ValidateResponse(r.Method, r.Path, resp.StatusCode, resp.Header, b); err != nil {
		o.err = err
	} else if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("%s %s: status %d: %s", r.Method, r.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return o
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// exactCounters snapshots the layer counters that must repeat bit for bit
// when the same requests run against the same set-up program.
func exactCounters(e *env) map[string]int64 {
	qs := e.srv.CacheStats()
	gs := e.dev.Stats()
	scanned, pruned := core.ScanStats()
	m := map[string]int64{
		"qcache.hits":             int64(qs.Hits),
		"qcache.misses":           int64(qs.Misses),
		"gpu.points":              gs.PointsIn,
		"gpu.fragments":           gs.FragmentsShaded,
		"gpu.passes":              gs.Passes,
		"segment.blocks_scanned":  scanned,
		"segment.blocks_pruned":   pruned,
		"tcache.slabs_reused":     0,
		"tcache.slabs_recomputed": 0,
	}
	if j := e.f.Incremental(); j != nil {
		m["tcache.slabs_reused"] = int64(j.SlabsReused())
		m["tcache.slabs_recomputed"] = int64(j.SlabsRecomputed())
	}
	return m
}

func diff(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// digest hashes the normalized bodies of the given outcomes in order.
func digest(outs []outcome) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write([]byte(o.req.Kind))
		h.Write([]byte{byte(o.status >> 8), byte(o.status)})
		h.Write(o.sum[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
