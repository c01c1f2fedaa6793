package driver

import (
	"context"
	"fmt"

	"gpuperf/internal/arch"
	"gpuperf/internal/bios"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
	"gpuperf/internal/obs"
)

// Fault-aware driver surface. A resilient harness attaches a per-attempt
// injector to the device, opens it through the *WithFaults constructors
// (which can refuse to boot), and drives launches through the Ctx variants
// so a watchdog context can kill a hung launch. Everything here is inert —
// bit-for-bit identical to the plain paths — when no injector is attached.

// AttachFaults wires an injector into the device's fault points: the
// clock-set/reflash path (clockset.fail, bios.bitflip), the launch path
// (launch.hang, launch.corrupt) and the power meter (meter.*). Passing nil
// detaches all fault injection.
func (d *Device) AttachFaults(in *fault.Injector) {
	d.faults = in
	d.inst.Faults = in
}

// OpenBoardWithFaults is OpenBoard behind a boot-failure fault point: the
// injector can refuse the boot entirely (boot.fail), modeling a device
// that needs another power-cycle before it enumerates.
func OpenBoardWithFaults(name string, in *fault.Injector) (*Device, error) {
	if err := in.Fail(fault.BootFail, name); err != nil {
		return nil, fmt.Errorf("driver: boot failed: %w", err)
	}
	d, err := OpenBoard(name)
	if err != nil {
		return nil, err
	}
	d.AttachFaults(in)
	return d, nil
}

// OpenSpecWithFaults is OpenSpec behind the same boot-failure fault point.
// Fleet devices boot through BoardModel.OpenWithFaults instead, which keeps
// this fault point and shares the base board's timing.
func OpenSpecWithFaults(spec *arch.Spec, in *fault.Injector) (*Device, error) {
	if err := in.Fail(fault.BootFail, spec.Name); err != nil {
		return nil, fmt.Errorf("driver: boot failed: %w", err)
	}
	d, err := OpenSpec(spec)
	if err != nil {
		return nil, err
	}
	d.AttachFaults(in)
	return d, nil
}

// Reflash reboots the device from its golden VBIOS image at the current
// clock pair — the recovery a resilient harness performs after killing a
// hung launch. It bypasses the fault points: recovery itself is assumed
// reliable (the next metered attempt draws fresh faults).
func (d *Device) Reflash() error {
	copy(d.img, d.pristine)
	pair := d.clk.Pair()
	if err := bios.PatchBootPair(d.img, pair); err != nil {
		return fmt.Errorf("driver: reflash: %w", err)
	}
	decoded, err := bios.Parse(d.img)
	if err != nil {
		return fmt.Errorf("driver: reflash: %w", err)
	}
	if err := d.clk.SetPair(decoded.Boot); err != nil {
		return err
	}
	if o := d.obs; o != nil {
		o.reboots.Inc()
		o.track.Instant("reflash", obs.Arg{Key: "pair", Value: pair.String()})
	}
	return nil
}

// hangCheck consults the launch.hang fault point. On a hit the "launch"
// blocks until the watchdog context expires, then reports the hang as a
// transient fault; with no watchdog armed (a context that can never be
// done) it reports the hang immediately rather than blocking forever.
func (d *Device) hangCheck(ctx context.Context, scope string) error {
	if !d.faults.Hit(fault.LaunchHang) {
		return nil
	}
	if ctx != nil && ctx.Done() != nil {
		<-ctx.Done()
	}
	return &fault.Error{Point: fault.LaunchHang, Scope: scope}
}

// LaunchCtx is Launch behind the launch fault points: the launch can hang
// until ctx expires (launch.hang), and a profiled launch can return a
// corrupted counter readout (launch.corrupt), reported as a transient
// fault rather than silently polluting the dataset.
func (d *Device) LaunchCtx(ctx context.Context, k *gpu.KernelDesc) (*LaunchResult, error) {
	if err := d.hangCheck(ctx, k.Name); err != nil {
		return nil, fmt.Errorf("driver: kernel %q: %w", k.Name, err)
	}
	out, err := d.Launch(k)
	if err != nil {
		return nil, err
	}
	if d.profiling && d.faults.Hit(fault.LaunchCorrupt) {
		return nil, fmt.Errorf("driver: kernel %q: %w", k.Name,
			&fault.Error{Point: fault.LaunchCorrupt, Scope: k.Name})
	}
	return out, nil
}

// RunMeteredCtx is RunMetered behind the launch fault points. The hang is
// checked once per metered run — the profile's launch.hang probability is
// per run, so workloads with long kernel sequences are not punished — and
// the corrupt-readout point guards the profiler's counter collection.
// Meter faults apply inside the measurement itself (the injector is
// attached to the instrument).
func (d *Device) RunMeteredCtx(ctx context.Context, name string, ks []*gpu.KernelDesc, hostGapSeconds, minDuration float64) (*RunResult, error) {
	if err := d.hangCheck(ctx, name); err != nil {
		return nil, fmt.Errorf("driver: workload %q: %w", name, err)
	}
	out, err := d.RunMetered(name, ks, hostGapSeconds, minDuration)
	if err != nil {
		return nil, err
	}
	if d.profiling && d.faults.Hit(fault.LaunchCorrupt) {
		return nil, fmt.Errorf("driver: workload %q: %w", name,
			&fault.Error{Point: fault.LaunchCorrupt, Scope: name})
	}
	return out, nil
}
