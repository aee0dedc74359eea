package sim

import (
	"errors"
	"testing"

	"repro/internal/graph"
)

// TestReleasedNetworkFails: once a network has handed its buffers back, every
// way of driving it reports so, under both delay paths (the jitter one would
// otherwise index the wheel it no longer has), and the run that now owns the
// buffers is not disturbed.
func TestReleasedNetworkFails(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay DelayModel
	}{
		{"unit", nil},
		{"jitter3", JitterDelay{Seed: 1, Max: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Graph: graph.Star(9), Delay: tc.delay, TrackPerNode: true}
			first := &fanInProto{}
			nw := New(cfg, first)
			want, err := nw.Run()
			if err != nil {
				t.Fatal(err)
			}
			nw.release()

			// The next network may be running on those buffers by now.
			next := New(cfg, &fanInProto{})
			if err := next.Begin(); err != nil {
				t.Fatal(err)
			}

			if err := nw.Begin(); !errors.Is(err, errReleased) {
				t.Errorf("Begin on a released network: %v, want %v", err, errReleased)
			}
			if err := nw.Step(); !errors.Is(err, errReleased) {
				t.Errorf("Step on a released network: %v, want %v", err, errReleased)
			}
			if _, err := nw.Run(); !errors.Is(err, errReleased) {
				t.Errorf("Run on a released network: %v, want %v", err, errReleased)
			}
			if got := nw.Stats(); got.Rounds != want.Rounds || got.MessagesSent != want.MessagesSent || len(first.arrivals) != 8 {
				t.Errorf("a released network moved: stats %+v, want %+v; %d arrivals", got, want, len(first.arrivals))
			}

			for !next.Quiescent() {
				if err := next.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if got := next.Stats(); got.Rounds != want.Rounds || got.MessagesSent != want.MessagesSent {
				t.Errorf("the run after the release: stats %+v, want %+v", got, want)
			}
			if &want.Received[0] == &next.Stats().Received[0] {
				t.Error("Stats.Received of a released run was recycled")
			}
		})
	}
}
