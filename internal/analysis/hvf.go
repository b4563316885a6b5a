package analysis

import (
	"fmt"

	"avfstress/internal/avf"
	"avfstress/internal/uarch"
)

// HVF computes a Hardware Vulnerability Factor-style occupancy bound for
// the queueing structures, after Sridharan & Kaeli (ISCA'10), which the
// paper discusses in §VIII: HVF is the microarchitecture-side vulnerable
// residency (any valid state, ACE or not), so for each structure
// AVF ≤ HVF, with the gap being the program-side masking (un-ACE
// instructions, wrong-path work). The paper's point — that HVF still
// cannot establish the *worst case* because it remains
// workload-dependent — is exactly what Experiments' HVFGap lets one see.
type HVF struct {
	// Occupancy-derived HVF per structure (only queueing structures have
	// an occupancy-based bound; others are left zero).
	Value [uarch.NumStructures]float64
}

// HVFOf derives the occupancy-based HVF bound from a simulation result.
// For the LQ/SQ, the tag and data halves share the entry-occupancy
// bound; for the ROB/IQ the entry occupancy is the bound directly.
func HVFOf(r *avf.Result) HVF {
	var h HVF
	h.Value[uarch.ROB] = r.OccupancyROB
	h.Value[uarch.IQ] = r.OccupancyIQ
	h.Value[uarch.LQTag] = r.OccupancyLQ
	h.Value[uarch.LQData] = r.OccupancyLQ
	h.Value[uarch.SQTag] = r.OccupancySQ
	h.Value[uarch.SQData] = r.OccupancySQ
	return h
}

// Check verifies AVF ≤ HVF (+eps) for every bounded structure and
// returns the first violation, if any. A violation would indicate an
// accounting bug: ACE residency exceeding total residency.
func (h HVF) Check(r *avf.Result, eps float64) error {
	for _, s := range []uarch.Structure{
		uarch.ROB, uarch.IQ, uarch.LQTag, uarch.LQData, uarch.SQTag, uarch.SQData,
	} {
		if r.AVF[s] > h.Value[s]+eps {
			return fmt.Errorf("analysis: AVF[%v]=%.4f exceeds HVF bound %.4f for %s",
				s, r.AVF[s], h.Value[s], r.Workload)
		}
	}
	return nil
}
