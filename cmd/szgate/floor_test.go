package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestEngineFloorVerdict pins the floor's verdict on synthetic host times:
// it passes on the interval's lower bound, not on the point ratio.
func TestEngineFloorVerdict(t *testing.T) {
	compiled := normalSamples(floorPairs, 0.02, 0.02)
	for _, tc := range []struct {
		name      string
		walk      []float64
		wantRatio float64
		pass      bool
	}{
		{"steady 2.5x", normalSamples(floorPairs, 0.05, 0.02), 2.5, true},
		{"steady 1.5x", normalSamples(floorPairs, 0.03, 0.02), 1.5, false},
		// The point ratio clears the floor; the interval's lower bound
		// does not.
		{"noisy 1.9x", normalSamples(floorPairs, 0.038, 0.5), 1.9, false},
	} {
		r := engineFloor(tc.walk, compiled)
		t.Logf("%s: ratio %.3f, BCa [%.3f, %.3f]", tc.name, r.Ratio, r.BCa.Lo, r.BCa.Hi)
		if math.Abs(r.Ratio-tc.wantRatio) > 1e-9 {
			t.Errorf("%s: ratio %v, want %v", tc.name, r.Ratio, tc.wantRatio)
		}
		if !r.BCa.Contains(r.Ratio) {
			t.Errorf("%s: BCa [%.3f, %.3f] excludes the ratio", tc.name, r.BCa.Lo, r.BCa.Hi)
		}
		if r.pass() != tc.pass {
			t.Errorf("%s: pass=%v, want %v", tc.name, r.pass(), tc.pass)
		}
	}
}

// TestFloorCommand runs the floor end to end. Its verdict depends on the
// host, so either verdict passes; an infrastructure error does not.
func TestFloorCommand(t *testing.T) {
	var out bytes.Buffer
	if code, err := cmdFloor([]string{"extra"}, &out); code != exitInfra || err == nil {
		t.Fatalf("floor with an argument: code=%d err=%v, want exit %d with a usage error", code, err, exitInfra)
	}
	if testing.Short() {
		t.Skip("times 20 pairs of full runs")
	}
	code, err := cmdFloor(nil, &out)
	if err != nil || (code != exitOK && code != exitGateFail) {
		t.Fatalf("floor: code=%d err=%v\n%s", code, err, out.String())
	}
	for _, want := range []string{"cactusADM", "20 interleaved pairs", "walk/compiled", "95% BCa CI", "floor 1.80x", "FLOOR "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("floor output missing %q:\n%s", want, out.String())
		}
	}
}
