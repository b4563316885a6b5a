package analysis

import (
	"math"
	"testing"

	"avfstress/internal/avf"
	"avfstress/internal/uarch"
)

func TestHVFBoundsAVF(t *testing.T) {
	r := &avf.Result{Workload: "w"}
	r.OccupancyROB = 0.8
	r.OccupancyIQ = 0.5
	r.OccupancyLQ = 0.6
	r.OccupancySQ = 0.4
	r.AVF[uarch.ROB] = 0.7
	r.AVF[uarch.IQ] = 0.5
	r.AVF[uarch.LQTag] = 0.55
	h := HVFOf(r)
	if err := h.Check(r, 0); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	if got := h.Value[uarch.ROB]; math.Abs(got-0.8) > 1e-9 {
		t.Errorf("ROB HVF %f, want the ROB occupancy 0.8", got)
	}
}

func TestHVFCatchesViolation(t *testing.T) {
	r := &avf.Result{Workload: "broken"}
	r.OccupancyROB = 0.3
	r.AVF[uarch.ROB] = 0.9 // ACE residency above total residency: a bug
	h := HVFOf(r)
	if err := h.Check(r, 0.01); err == nil {
		t.Error("AVF > HVF not detected")
	}
}

func TestHVFMapsLSQHalves(t *testing.T) {
	r := &avf.Result{}
	r.OccupancyLQ = 0.42
	h := HVFOf(r)
	if h.Value[uarch.LQTag] != 0.42 || h.Value[uarch.LQData] != 0.42 {
		t.Error("LQ halves must share the entry-occupancy bound")
	}
}
