package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mdegst/internal/graph"
)

// TestDelayFnBounds pins the invariant the calendar queue depends on: every
// shipped DelayFn draws delays strictly inside (0, 1] for any seed, so at
// any moment all pending deliveries lie within one time unit of the current
// event and the wheel's bucket window is exact.
func TestDelayFnBounds(t *testing.T) {
	fns := map[string]DelayFn{
		"unit":         UnitDelay,
		"uniform-0":    UniformDelay(0),
		"uniform-0.05": UniformDelay(0.05),
		"uniform-0.99": UniformDelay(0.99),
	}
	for name, fn := range fns {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 5000; i++ {
					d := fn(rng, 1, 2)
					if !(d > 0 && d <= 1) {
						t.Fatalf("seed %d draw %d: delay %v outside (0, 1]", seed, i, d)
					}
				}
			}
		})
	}
}

// TestUniformDelayRespectsLowerBound checks the documented (lo, 1] contract.
func TestUniformDelayRespectsLowerBound(t *testing.T) {
	const lo = 0.25
	fn := UniformDelay(lo)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		if d := fn(rng, 0, 1); d <= lo || d > 1 {
			t.Fatalf("draw %d: delay %v outside (%v, 1]", i, d, lo)
		}
	}
}

// constDelay returns the given value on every draw — deliberately invalid
// values exercise the engines' bound check.
func constDelay(v float64) DelayFn {
	return func(*rand.Rand, NodeID, NodeID) float64 { return v }
}

// TestOutOfRangeDelayRejected verifies both discrete-event engines abort
// with a clear typed error — not a corrupted wheel, a hang or a generic
// panic — when a DelayFn leaves (0, 1].
func TestOutOfRangeDelayRejected(t *testing.T) {
	g := graph.Ring(8)
	bad := []struct {
		name string
		d    float64
	}{
		{"zero", 0},
		{"negative", -0.5},
		{"above-one", 1.5},
	}
	for _, tc := range bad {
		for _, eng := range []struct {
			name string
			mk   func(DelayFn) Engine
		}{
			{"event", func(d DelayFn) Engine { return &EventEngine{Delay: d, FIFO: true} }},
			{"reference", func(d DelayFn) Engine { return &ReferenceEngine{Delay: d, FIFO: true} }},
		} {
			t.Run(eng.name+"/"+tc.name, func(t *testing.T) {
				_, _, err := eng.mk(constDelay(tc.d)).Run(g.Compile(), tokenFactory(10))
				if err == nil {
					t.Fatal("expected an error for out-of-range delay")
				}
				var bd badDelay
				if !errors.As(err, &bd) {
					t.Fatalf("error is not a badDelay: %v", err)
				}
				if !strings.Contains(err.Error(), "(0, 1]") {
					t.Errorf("error does not name the bound: %v", err)
				}
				if strings.Contains(err.Error(), "protocol panic") {
					t.Errorf("delay violation reported as a generic protocol panic: %v", err)
				}
			})
		}
	}
}

// TestEngineHealthyAfterDelayRejection runs a valid workload after an
// aborted one on the same pooled scratch path: a rejection must not leave a
// corrupted wheel behind for the next run.
func TestEngineHealthyAfterDelayRejection(t *testing.T) {
	g := graph.Gnp(24, 0.3, 42)
	if _, _, err := (&EventEngine{Delay: constDelay(2)}).Run(g.Compile(), tokenFactory(10)); err == nil {
		t.Fatal("expected rejection")
	}
	var first *Report
	for i := 0; i < 3; i++ {
		_, rep, err := (&EventEngine{Delay: UniformDelay(0.05), Seed: 99, FIFO: true}).Run(g.Compile(), tokenFactory(40))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
		} else if rep.Messages != first.Messages || rep.VirtualTime != first.VirtualTime {
			t.Fatalf("run %d diverged after a rejected run: %+v vs %+v", i, rep, first)
		}
	}
}

// TestDelayedTokenAllDelays sanity-checks the wheel across the whole legal
// delay spectrum, including delays far below the bucket width (which force
// sorted inserts into the live bucket).
func TestDelayedTokenAllDelays(t *testing.T) {
	g := graph.Ring(12)
	for _, d := range []float64{1e-6, 1.0 / wheelSpan / 2, 0.01, 0.5, 1} {
		t.Run(fmt.Sprintf("d=%g", d), func(t *testing.T) {
			_, rep, err := (&EventEngine{Delay: constDelay(d), FIFO: true}).Run(g.Compile(), tokenFactory(30))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Messages != 30 {
				t.Errorf("messages = %d, want 30", rep.Messages)
			}
			wantT := 30 * d
			if diff := rep.VirtualTime - wantT; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("virtual time = %v, want ~%v", rep.VirtualTime, wantT)
			}
		})
	}
}
