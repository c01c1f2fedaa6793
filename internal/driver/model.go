package driver

import (
	"fmt"
	"sync"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
	"gpuperf/internal/power"
)

// The paper models power (Eq. 1) and execution time (Eq. 2) separately,
// and the simulator splits the same way: a launch's time, activity vector
// and per-phase event tallies are functions of the board's timing fields
// and the clock pair alone, while voltage, leakage and idle power only
// enter when those tallies are integrated into watts. A BoardModel holds
// the timing half for one base board, computed once and shared by every
// device booted from a spec that differs from the base in power fields
// only — the fleet's jittered devices. Each such device then does the
// power half alone: one integration per (kernel, pair) with its own power
// model.

// launchTiming is the power-free outcome of one launch at one pair: what
// the simulator determines before any voltage or leakage is applied.
type launchTiming struct {
	time   float64
	acts   counters.Vector
	phases []phaseEnergy
}

// phaseEnergy is one phase's duration and its energy-accounting event
// tally, already scaled by the phase's switching-activity factor (the
// profiler's counters never see that factor).
type phaseEnergy struct {
	dur float64
	ev  gpu.Events
}

// timingOf extracts the power-free part of a simulator result. The result
// is copied; the caller may release it afterwards.
func timingOf(res *gpu.KernelResult) *launchTiming {
	t := &launchTiming{time: res.Time, acts: res.Activities, phases: make([]phaseEnergy, len(res.Phases))}
	for i, ph := range res.Phases {
		ev := ph.Events
		ev.Scale(ph.EnergyScale)
		t.phases[i] = phaseEnergy{dur: ph.Duration, ev: ev}
	}
	return t
}

// newLaunch integrates a launch's timing into its noiseless payload with
// power model pm at the pair clk is programmed to: the wall-power waveform
// (one segment per phase) and the GPU-domain energy split by scope. Every
// launch payload — per-launch simulation, batched precompute and board
// model alike — is built here.
func newLaunch(pm *power.Model, clk *clock.State, t *launchTiming) *cachedLaunch {
	cl := &cachedLaunch{time: t.time, acts: t.acts}
	for _, ph := range t.phases {
		w := pm.SystemWatts(clk, ph.ev, ph.dur)
		cl.trace = cl.trace.Append(ph.dur, w)
		cl.scopeJ = cl.scopeJ.Add(pm.ScopeWatts(clk, ph.ev, ph.dur).Scale(ph.dur))
	}
	return cl
}

// BoardModel is the shared timing model of one base board: each kernel's
// compiled form and its timing at every pair the board exposes, computed
// on first use and never changed afterwards. It is safe for concurrent
// use; one model serves every device of its board in a fleet campaign.
type BoardModel struct {
	spec *arch.Spec // validated private copy of the base spec
	key  arch.Spec  // timingKey of spec

	mu      sync.Mutex
	kernels map[uint64]*kernelTiming // by gpu.KernelDesc fingerprint
}

// kernelTiming is one kernel's timing over the board's pair grid,
// indexed [core][mem]; pairs the board does not expose stay nil. Filled
// exactly once, then read-only.
type kernelTiming struct {
	once  sync.Once
	err   error
	pairs [3][3]*launchTiming
}

// NewBoardModel builds an empty timing model for a base board spec. The
// spec must validate; the model keeps its own copy.
func NewBoardModel(spec *arch.Spec) (*BoardModel, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	base := *spec // Spec is all value fields; a copy is deep
	return &BoardModel{spec: &base, key: timingKey(&base), kernels: make(map[uint64]*kernelTiming)}, nil
}

// timingKey is spec with every field that cannot affect timing zeroed:
// the name, the voltage curve, and the leakage and idle powers. Two specs
// with equal keys produce bit-identical simulator timing (a property test
// pins this for every board under fleet jitter).
func timingKey(spec *arch.Spec) arch.Spec {
	k := *spec
	k.Name = ""
	k.CoreVoltHigh, k.CoreVoltLow = 0, 0
	k.MemVoltHigh, k.MemVoltLow = 0, 0
	k.VoltExponent = 0
	k.CoreLeakWatts, k.MemLeakWatts = 0, 0
	k.CoreIdleWatts, k.MemIdleWatts = 0, 0
	return k
}

// Open boots a device for spec whose launches take their timing from the
// model: the device integrates power with its own power model but never
// runs the simulator for a launch and never touches the shared launch
// cache. The boot is otherwise OpenSpec's: the spec is validated and the
// device boots from a freshly built VBIOS image. A spec that differs from
// the model's base in any timing field is rejected.
func (m *BoardModel) Open(spec *arch.Spec) (*Device, error) {
	if timingKey(spec) != m.key {
		return nil, fmt.Errorf("driver: %s differs from the %s timing model in a timing field", spec.Name, m.spec.Name)
	}
	d, err := bootSpec(spec)
	if err != nil {
		return nil, err
	}
	d.model = m
	d.cache = make(map[launchKey]*cachedLaunch)
	return d, nil
}

// OpenWithFaults is Open behind the boot-failure fault point, like
// OpenSpecWithFaults.
func (m *BoardModel) OpenWithFaults(spec *arch.Spec, in *fault.Injector) (*Device, error) {
	if err := in.Fail(fault.BootFail, spec.Name); err != nil {
		return nil, fmt.Errorf("driver: boot failed: %w", err)
	}
	d, err := m.Open(spec)
	if err != nil {
		return nil, err
	}
	d.AttachFaults(in)
	return d, nil
}

// kernel returns k's timing over the pair grid, compiling and evaluating
// the kernel the first time any device asks for it.
func (m *BoardModel) kernel(k *gpu.KernelDesc, kfp uint64) (*kernelTiming, error) {
	m.mu.Lock()
	kt := m.kernels[kfp]
	if kt == nil {
		kt = &kernelTiming{}
		m.kernels[kfp] = kt
	}
	m.mu.Unlock()
	kt.once.Do(func() { kt.err = kt.fill(m.spec, k) })
	if kt.err != nil {
		return nil, kt.err
	}
	return kt, nil
}

// fill compiles k once and evaluates it at every pair the board exposes.
func (kt *kernelTiming) fill(spec *arch.Spec, k *gpu.KernelDesc) error {
	sim := gpu.New(spec, clock.NewState(spec))
	ck, err := sim.Compile(k)
	if err != nil {
		return fmt.Errorf("driver: model %q: %w", k.Name, err)
	}
	pairs := clock.ValidPairs(spec)
	results, err := sim.RunPairs(ck, pairs)
	if err != nil {
		return fmt.Errorf("driver: model %q: %w", k.Name, err)
	}
	for i, res := range results {
		kt.pairs[pairs[i].Core][pairs[i].Mem] = timingOf(res)
		gpu.ReleaseResult(res)
	}
	return nil
}

// modelLaunch builds the payload of k for a model-booted device with the
// device's power model on clk. clk only ever holds a pair the device's
// spec exposes, and the model's base exposes the same pairs (ValidPairs
// is a timing field), so the model has a timing for it.
func (d *Device) modelLaunch(k *gpu.KernelDesc, kfp uint64, clk *clock.State) (*cachedLaunch, error) {
	kt, err := d.model.kernel(k, kfp)
	if err != nil {
		return nil, err
	}
	p := clk.Pair()
	return newLaunch(d.pm, clk, kt.pairs[p.Core][p.Mem]), nil
}
