package fleet

import (
	"math"
	"reflect"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
	"gpuperf/internal/workloads"
)

// TestJitterKeepsTiming is the invariant the shared board models rest
// on: fleet jitter moves power fields only, so for every base board, a
// device under the "loose" profile, every Table IV kernel and every
// valid pair, Compile + RunPairs give bit-identical results on the
// jittered spec and on the base spec.
func TestJitterKeepsTiming(t *testing.T) {
	loose, err := ParseJitterProfile("loose")
	if err != nil {
		t.Fatal(err)
	}
	bases := arch.AllBoards()
	fl, err := New(11, nil, 2*len(bases), loose)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fl.Size(); i++ {
		dev := fl.Device(i)
		base := bases[i%len(bases)]
		if dev.Spec.CoreVoltHigh == base.CoreVoltHigh || dev.Spec.CoreLeakWatts == base.CoreLeakWatts {
			t.Fatalf("%s: loose jitter left the power fields unchanged", dev.Name)
		}
		pairs := clock.ValidPairs(base)
		if !reflect.DeepEqual(clock.ValidPairs(dev.Spec), pairs) {
			t.Fatalf("%s: pair grid differs from %s", dev.Name, base.Name)
		}
		jsim := gpu.New(dev.Spec, clock.NewState(dev.Spec))
		bsim := gpu.New(base, clock.NewState(base))
		for _, b := range workloads.Table4() {
			for _, k := range b.Kernels(1) {
				jck, err := jsim.Compile(k)
				if err != nil {
					t.Fatal(err)
				}
				bck, err := bsim.Compile(k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := jsim.RunPairs(jck, pairs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := bsim.RunPairs(bck, pairs)
				if err != nil {
					t.Fatal(err)
				}
				for pi := range pairs {
					if !sameResult(got[pi], want[pi]) {
						t.Errorf("%s %s/%s at %s: jittered timing differs from %s",
							dev.Name, b.Name, k.Name, pairs[pi], base.Name)
					}
				}
			}
		}
	}
}

// sameResult compares two simulator results bit for bit.
func sameResult(a, b *gpu.KernelResult) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Kernel != b.Kernel || !same(a.Time, b.Time) || !same(a.Occupancy, b.Occupancy) || len(a.Phases) != len(b.Phases) {
		return false
	}
	for i := range a.Activities {
		if !same(a.Activities[i], b.Activities[i]) {
			return false
		}
	}
	for i, pa := range a.Phases {
		pb := b.Phases[i]
		if pa.Name != pb.Name || pa.Bottleneck != pb.Bottleneck ||
			!same(pa.Duration, pb.Duration) || !same(pa.EnergyScale, pb.EnergyScale) ||
			!reflect.DeepEqual(pa.Events, pb.Events) {
			return false
		}
	}
	return true
}
