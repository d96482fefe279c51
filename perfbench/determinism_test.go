package main

import (
	"context"
	"reflect"
	"testing"
)

// TestExactCountersRepeat runs each workload's first requests twice, each
// time on a freshly set-up program at a small size, and requires the exact
// layer counters and the response digest to repeat bit for bit, every
// response to pass the contract check, and the sampled reads to match the
// reference server.
func TestExactCountersRepeat(t *testing.T) {
	const (
		taxi   = 20_000
		seed   = 7
		prefix = 48
	)
	ctx := context.Background()
	in := generate(taxi, seed)
	sc := schemaOf(in.points)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			var runs []*loop
			for i := 0; i < 2; i++ {
				e, err := build(ctx, sp, in, t.TempDir(), false)
				if err != nil {
					t.Fatal(err)
				}
				lp, err := drive(e, sp.newStream(seed, sc), phase{prefix: prefix}, nil, nil)
				e.close()
				if err != nil {
					t.Fatal(err)
				}
				if len(lp.warm) != prefix || len(lp.outs) != 0 {
					t.Fatalf("ran %d+%d requests, want %d+0", len(lp.warm), len(lp.outs), prefix)
				}
				for j, o := range lp.warm {
					if o.err != nil {
						t.Fatalf("request %d: %v", j, o.err)
					}
				}
				runs = append(runs, lp)
			}
			if !reflect.DeepEqual(runs[0].exact, runs[1].exact) {
				t.Errorf("exact counters differ:\n%v\n%v", runs[0].exact, runs[1].exact)
			}
			if a, b := digest(runs[0].warm), digest(runs[1].warm); a != b {
				t.Errorf("response digests differ: %s vs %s", a, b)
			}
			if runs[0].exact["gpu.points"] == 0 {
				t.Errorf("no points reached the device: %v", runs[0].exact)
			}
			checked, bad, err := verify(ctx, sp, in, runs[0].warm, seed, 24)
			if err != nil {
				t.Fatal(err)
			}
			if checked == 0 || len(bad) > 0 {
				t.Errorf("reference check: %d compared, mismatches %v", checked, bad)
			}
		})
	}
}
