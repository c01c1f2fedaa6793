package driver

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
)

// powerVariant returns a copy of the named board with every power-only
// field scaled by f, the way the fleet generator jitters a device.
func powerVariant(t testing.TB, name string, f float64) *arch.Spec {
	t.Helper()
	s := arch.BoardByName(name)
	if s == nil {
		t.Fatalf("unknown board %q", name)
	}
	s.Name = fmt.Sprintf("%s#%.2f", name, f)
	s.CoreVoltHigh *= f
	s.CoreVoltLow *= f
	s.MemVoltHigh *= f
	s.MemVoltLow *= f
	if s.VoltExponent *= f; s.VoltExponent < 1 {
		s.VoltExponent = 1
	}
	s.CoreLeakWatts *= f
	s.MemLeakWatts *= f
	s.CoreIdleWatts *= f
	s.MemIdleWatts *= f
	return s
}

// TestBoardModelDeviceMatchesOpenSpec: a device booted from the base
// board's model produces byte-identical metered runs (trace, samples,
// profiler counters) to an uncached OpenSpec device of the same spec,
// whether its payloads were precomputed or filled launch by launch, and
// it never touches the shared launch cache.
func TestBoardModelDeviceMatchesOpenSpec(t *testing.T) {
	shared := NewLaunchCache(DefaultSharedLaunchCacheEntries)
	defer PushSharedLaunchCache(shared)()
	for _, base := range arch.AllBoards() {
		spec := powerVariant(t, base.Name, 1.04)
		model, err := NewBoardModel(base)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := OpenSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref.DisableLaunchCache()
		want := runAcrossPairs(t, ref, 42)

		pre, err := model.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		pairs := clock.ValidPairs(spec)
		k := testKernel(4 * spec.SMCount)
		pre.EnableProfiler()
		n, err := pre.PrecomputePairs([]*gpu.KernelDesc{k}, pairs)
		pre.DisableProfiler()
		if err != nil {
			t.Fatal(err)
		}
		if n != len(pairs) {
			t.Fatalf("%s: precompute filled %d entries, want %d", base.Name, n, len(pairs))
		}
		lazy, err := model.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*Device{"precomputed": pre, "lazy": lazy} {
			got := runAcrossPairs(t, d, 42)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s %s pair #%d: model device differs from OpenSpec", base.Name, name, i)
				}
			}
		}
	}
	if n := shared.Len(); n != 0 {
		t.Errorf("model devices put %d entries in the shared launch cache, want 0", n)
	}
}

func TestBoardModelRejectsTimingChange(t *testing.T) {
	model, err := NewBoardModel(arch.GTX680())
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*arch.Spec){
		"SMCount":      func(s *arch.Spec) { s.SMCount++ },
		"CoreFreqsMHz": func(s *arch.Spec) { s.CoreFreqsMHz[arch.FreqMid]++ },
		"EnergyPerALU": func(s *arch.Spec) { s.EnergyPerALU *= 1.01 },
	} {
		spec := arch.GTX680()
		mutate(spec)
		if _, err := model.Open(spec); err == nil || !strings.Contains(err.Error(), "timing field") {
			t.Errorf("%s changed: Open err = %v, want a timing-field rejection", name, err)
		}
	}
	if _, err := model.Open(powerVariant(t, "GTX 680", 0.97)); err != nil {
		t.Errorf("power-only variant rejected: %v", err)
	}
}

// TestBoardModelConcurrentDevices shares one fresh model between eight
// goroutines, each booting its own power variant and sweeping every pair
// with two kernels, so the model's first fills race. Every device must
// match a serial OpenSpec reference. Run under -race.
func TestBoardModelConcurrentDevices(t *testing.T) {
	base := arch.GTX680()
	model, err := NewBoardModel(base)
	if err != nil {
		t.Fatal(err)
	}
	ks := []*gpu.KernelDesc{testKernel(4 * base.SMCount), testKernel(base.SMCount / 2)}
	run := func(d *Device) ([]*RunResult, error) {
		d.Seed(7)
		var out []*RunResult
		for _, p := range clock.ValidPairs(d.Spec()) {
			if err := d.SetClocks(p); err != nil {
				return nil, err
			}
			rr, err := d.RunMetered("w", ks, 0.01, 0.5)
			if err != nil {
				return nil, err
			}
			out = append(out, rr)
		}
		return out, nil
	}
	const n = 8
	specs := make([]*arch.Spec, n)
	for g := range specs {
		specs[g] = powerVariant(t, base.Name, 1+0.01*float64(g))
	}
	got := make([][]*RunResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d, err := model.Open(specs[g])
			if err == nil {
				if g%2 == 0 {
					_, err = d.PrecomputePairs(ks, clock.ValidPairs(d.Spec()))
				}
				if err == nil {
					got[g], err = run(d)
				}
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		ref, err := OpenSpec(powerVariant(t, base.Name, 1+0.01*float64(g)))
		if err != nil {
			t.Fatal(err)
		}
		ref.DisableLaunchCache()
		want, err := run(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("goroutine %d: shared-model runs differ from OpenSpec", g)
		}
	}
}
