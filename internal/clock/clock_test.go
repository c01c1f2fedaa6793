package clock

import (
	"fmt"
	"testing"
	"testing/quick"

	"gpuperf/internal/arch"
)

func TestPairString(t *testing.T) {
	cases := map[Pair]string{
		{arch.FreqHigh, arch.FreqHigh}: "(H-H)",
		{arch.FreqHigh, arch.FreqLow}:  "(H-L)",
		{arch.FreqMid, arch.FreqHigh}:  "(M-H)",
		{arch.FreqLow, arch.FreqMid}:   "(L-M)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", p, got, want)
		}
	}
}

// TestPairStringTable pins the precomputed spelling of every pair to the
// formatted "(%s-%s)" bytes journals were written with, and checks that
// each spelling parses back to its pair. Out-of-range levels still
// format instead of indexing past the table.
func TestPairStringTable(t *testing.T) {
	for _, core := range arch.Levels() {
		for _, mem := range arch.Levels() {
			p := Pair{core, mem}
			want := fmt.Sprintf("(%s-%s)", core, mem)
			if got := p.String(); got != want {
				t.Errorf("%#v.String() = %q, want %q", p, got, want)
			}
			back, err := ParsePair(p.String())
			if err != nil || back != p {
				t.Errorf("ParsePair(%q) = %v, %v; want %v", p.String(), back, err, p)
			}
		}
	}
	for _, p := range []Pair{{arch.FreqLevel(3), arch.FreqHigh}, {arch.FreqLow, arch.FreqLevel(-1)}} {
		if got, want := p.String(), fmt.Sprintf("(%s-%s)", p.Core, p.Mem); got != want {
			t.Errorf("%#v.String() = %q, want %q", p, got, want)
		}
	}
}

func TestParsePair(t *testing.T) {
	good := map[string]Pair{
		"(H-L)": {arch.FreqHigh, arch.FreqLow},
		"H-L":   {arch.FreqHigh, arch.FreqLow},
		"m-h":   {arch.FreqMid, arch.FreqHigh},
		"(L-M)": {arch.FreqLow, arch.FreqMid},
	}
	for s, want := range good {
		got, err := ParsePair(s)
		if err != nil {
			t.Errorf("ParsePair(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParsePair(%q) = %v, want %v", s, got, want)
		}
	}
	for _, s := range []string{"", "(H)", "H-", "X-L", "H_L", "(HL)", "(H-L"} {
		if _, err := ParsePair(s); err == nil {
			t.Errorf("ParsePair(%q) should fail", s)
		}
	}
}

func TestParsePairRoundTrip(t *testing.T) {
	f := func(c, m uint8) bool {
		p := Pair{arch.FreqLevel(c % 3), arch.FreqLevel(m % 3)}
		got, err := ParsePair(p.String())
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidPairsMatchesTableIII(t *testing.T) {
	want := map[string]int{"GTX 285": 8, "GTX 460": 7, "GTX 480": 7, "GTX 680": 7}
	for _, s := range arch.AllBoards() {
		ps := ValidPairs(s)
		if len(ps) != want[s.Name] {
			t.Errorf("%s: %d pairs, want %d", s.Name, len(ps), want[s.Name])
		}
		if len(ps) == 0 || ps[0] != DefaultPair() {
			t.Errorf("%s: first enumerated pair should be the default (H-H)", s.Name)
		}
		seen := map[Pair]bool{}
		for _, p := range ps {
			if seen[p] {
				t.Errorf("%s: pair %s enumerated twice", s.Name, p)
			}
			seen[p] = true
			if !s.PairValid(p.Core, p.Mem) {
				t.Errorf("%s: enumerated invalid pair %s", s.Name, p)
			}
		}
	}
}

func TestSetPairRejectsInvalid(t *testing.T) {
	st := NewState(arch.GTX680())
	if err := st.SetPair(Pair{arch.FreqLow, arch.FreqLow}); err == nil {
		t.Error("SetPair should reject (L-L) on GTX 680")
	}
	if got := st.Pair(); got != DefaultPair() {
		t.Errorf("failed SetPair must not change state; got %s", got)
	}
	if err := st.SetPair(Pair{arch.FreqLow, arch.FreqHigh}); err != nil {
		t.Errorf("SetPair((L-H)) on GTX 680: %v", err)
	}
	if got := st.Pair(); got != (Pair{arch.FreqLow, arch.FreqHigh}) {
		t.Errorf("Pair() = %s after SetPair((L-H))", got)
	}
}

func TestFrequenciesFollowPair(t *testing.T) {
	spec := arch.GTX680()
	st := NewState(spec)
	if got := st.CoreHz(); got != 1411e6 {
		t.Errorf("CoreHz at H = %g, want 1411e6", got)
	}
	if got := st.MemHz(); got != 3004e6 {
		t.Errorf("MemHz at H = %g, want 3004e6", got)
	}
	if err := st.SetPair(Pair{arch.FreqMid, arch.FreqLow}); err != nil {
		t.Fatal(err)
	}
	if got := st.CoreHz(); got != 1080e6 {
		t.Errorf("CoreHz at M = %g, want 1080e6", got)
	}
	if got := st.MemHz(); got != 324e6 {
		t.Errorf("MemHz at L = %g, want 324e6", got)
	}
}

func TestEnergyScalesAtMostOneAtHigh(t *testing.T) {
	for _, spec := range arch.AllBoards() {
		st := NewState(spec)
		for _, p := range ValidPairs(spec) {
			if err := st.SetPair(p); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, p, err)
			}
			for name, v := range map[string]float64{
				"CoreEnergyScale": st.CoreEnergyScale(),
				"MemEnergyScale":  st.MemEnergyScale(),
				"CoreLeakScale":   st.CoreLeakScale(),
				"MemLeakScale":    st.MemLeakScale(),
				"CoreIdleScale":   st.CoreIdleScale(),
				"MemIdleScale":    st.MemIdleScale(),
			} {
				if v <= 0 || v > 1+1e-9 {
					t.Errorf("%s %s: %s = %g out of (0, 1]", spec.Name, p, name, v)
				}
			}
		}
	}
}

func TestScalesAreOneAtDefault(t *testing.T) {
	for _, spec := range arch.AllBoards() {
		st := NewState(spec)
		for name, v := range map[string]float64{
			"CoreEnergyScale": st.CoreEnergyScale(),
			"MemEnergyScale":  st.MemEnergyScale(),
			"CoreLeakScale":   st.CoreLeakScale(),
			"MemLeakScale":    st.MemLeakScale(),
			"CoreIdleScale":   st.CoreIdleScale(),
			"MemIdleScale":    st.MemIdleScale(),
		} {
			if !closeTo(v, 1, 1e-12) {
				t.Errorf("%s: %s at (H-H) = %g, want 1", spec.Name, name, v)
			}
		}
	}
}

func TestDRAMLatencyGrowsAsMemClockDrops(t *testing.T) {
	spec := arch.GTX680()
	st := NewState(spec)
	latH := st.DRAMLatencySec()
	if !closeTo(latH, spec.DRAMLatencyNS*1e-9, 1e-15) {
		t.Errorf("latency at Mem-H = %g, want %g", latH, spec.DRAMLatencyNS*1e-9)
	}
	if err := st.SetPair(Pair{arch.FreqMid, arch.FreqLow}); err != nil {
		t.Fatal(err)
	}
	latL := st.DRAMLatencySec()
	if latL <= latH {
		t.Errorf("latency at Mem-L (%g) should exceed latency at Mem-H (%g)", latL, latH)
	}
	// Latency must grow sublinearly in 1/f: fixed component dominates.
	ratio := latL / latH
	freqRatio := spec.MemFreqMHz(arch.FreqHigh) / spec.MemFreqMHz(arch.FreqLow)
	if ratio >= freqRatio {
		t.Errorf("latency ratio %g should be below clock ratio %g", ratio, freqRatio)
	}
}

func TestKeplerMidCoreEnergyScaleIsDeep(t *testing.T) {
	// The convex Kepler V–f curve must make the (M-*) core energy scale
	// markedly deeper than the frequency ratio alone would suggest.
	st := NewState(arch.GTX680())
	if err := st.SetPair(Pair{arch.FreqMid, arch.FreqHigh}); err != nil {
		t.Fatal(err)
	}
	if got := st.CoreEnergyScale(); got > 0.65 {
		t.Errorf("GTX 680 core energy scale at M = %g, want deep (< 0.65)", got)
	}
	// Tesla, by contrast, barely scales.
	st285 := NewState(arch.GTX285())
	if err := st285.SetPair(Pair{arch.FreqMid, arch.FreqHigh}); err != nil {
		t.Fatal(err)
	}
	if got := st285.CoreEnergyScale(); got < 0.85 {
		t.Errorf("GTX 285 core energy scale at M = %g, want shallow (> 0.85)", got)
	}
}

func TestMemBandwidthScalesWithPair(t *testing.T) {
	spec := arch.GTX480()
	st := NewState(spec)
	bwH := st.MemBandwidthBytesPerSec()
	if err := st.SetPair(Pair{arch.FreqHigh, arch.FreqMid}); err != nil {
		t.Fatal(err)
	}
	bwM := st.MemBandwidthBytesPerSec()
	want := spec.MemFreqMHz(arch.FreqMid) / spec.MemFreqMHz(arch.FreqHigh)
	if got := bwM / bwH; !closeTo(got, want, 1e-9) {
		t.Errorf("bandwidth ratio M/H = %g, want %g", got, want)
	}
}

func closeTo(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
