package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/workload"
)

// verify re-issues a seeded sample of the reads in outs against a
// reference server built from the same inputs (in RAM, unsharded, no
// query-result cache) and compares the bodies byte for byte. Appends before
// the last sampled read are replayed in order first, so the reference
// holds the same data each sampled read saw. It returns how many reads it
// compared and a description of each mismatch.
func verify(ctx context.Context, sp spec, in *inputs, outs []outcome, seed int64, n int) (int, []string, error) {
	var reads []int
	for i, o := range outs {
		if o.family != "write" && !observability(o.req.Kind) {
			reads = append(reads, i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	if len(reads) > n {
		reads = reads[:n]
	}
	sampled := make(map[int]bool, len(reads))
	last := -1
	for _, i := range reads {
		sampled[i] = true
		last = max(last, i)
	}

	ref, err := build(ctx, sp, in, "", true)
	if err != nil {
		return 0, nil, fmt.Errorf("reference set-up: %w", err)
	}
	defer ref.close()
	var bad []string
	for i := 0; i <= last; i++ {
		o := outs[i]
		if o.family != "write" && !sampled[i] {
			continue
		}
		status, body := serveLocal(ref.srv, o.req)
		switch {
		case o.family == "write":
			if status != http.StatusOK {
				return 0, nil, fmt.Errorf("reference refused append %d: status %d", i, status)
			}
		case status != o.status || sha256.Sum256(normalize(o.req.Kind, body)) != o.sum:
			bad = append(bad, fmt.Sprintf("request %d %s %s: status %d vs reference %d, bodies differ",
				i, o.req.Method, o.req.Path, o.status, status))
		}
	}
	return len(reads), bad, nil
}

// serveLocal runs one request through h in-process.
func serveLocal(h http.Handler, r workload.HTTPRequest) (int, []byte) {
	req := httptest.NewRequest(r.Method, r.Path, strings.NewReader(r.Body))
	if r.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
