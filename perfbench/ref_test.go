package main

import "testing"

// TestRefUnits checks the conversion into ref units: each operation is
// divided by the median of the reference runs around it, so one slow
// reference run does not set its operation's unit.
func TestRefUnits(t *testing.T) {
	var c refClock
	for i := 0; i < 20; i++ {
		cpu := 10.0
		if i < 10 {
			cpu = 5
		}
		if i == 3 || i == 15 {
			cpu = 1000 // a run a burst of load hit
		}
		c.runs = append(c.runs, lap{wall: 1, cpu: cpu})
	}
	var tm timings
	tm.add(lap{wall: 7, cpu: 50}, 3)
	tm.add(lap{wall: 8, cpu: 50}, 15)
	tm.add(lap{wall: 9, cpu: 50}, 0)
	got := tm.inRef(&c)
	for i, want := range []float64{10, 5, 10} {
		if got[i] != want {
			t.Errorf("operation %d: %g ref, want %g", i, got[i], want)
		}
	}
	if w := tm.wall(); w[0] != 7 || w[2] != 9 {
		t.Errorf("wall times %v, want [7 8 9]", w)
	}
	if r := refRun(); r.wall <= 0 || r.cpu <= 0 {
		t.Errorf("reference run took %+v, want positive times", r)
	}
}
