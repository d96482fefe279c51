package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// spanHeader carries the client's request span id to the server wrapper,
// so the server-side span names its parent.
const spanHeader = "X-Bench-Span"

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Req    int    `json:"req"`    // request id shared by the spans of one request
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// recorder keeps spans in memory; they are written out once, at the end of
// the run.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// reserve returns a fresh span id, for a span whose children may be
// recorded before it ends.
func (r *recorder) reserve() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next - 1
}

// add records a span under a reserved id.
func (r *recorder) add(id int, name string, parent, req int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
}

// time records a call as a child of parent and returns its duration.
func (r *recorder) time(name string, parent, req int, call func() error) (float64, error) {
	id := r.reserve()
	start := time.Now()
	err := call()
	end := time.Now()
	r.add(id, name, parent, req, start, end)
	return msBetween(start, end), err
}

// wrap times the handler's ServeHTTP as a child of the request span the
// client named in spanHeader.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		id := r.reserve()
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(id, "urbane.serve", parent, parent, start, time.Now())
	})
}

// byID indexes the recorded spans.
func (r *recorder) byID() map[int]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]span, len(r.spans))
	for _, s := range r.spans {
		out[s.ID] = s
	}
	return out
}

// selfMs returns each span's self time: its duration minus the part its
// child spans cover.
func (r *recorder) selfMs() map[int]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make(map[int]float64, len(r.spans))
	for _, s := range r.spans {
		self[s.ID] += s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}

// write stores every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
