// Package faultsafety_bad is a lint fixture: every line marked with a
// want comment must be flagged by the faultsafety analyzer.
package faultsafety_bad

import (
	"context"
	"time"
)

type dev struct{}

func (d *dev) RunMeteredCtx(_ context.Context, name string) error { return nil }

func (d *dev) LaunchCtx(_ context.Context, name string) error { return nil }

func OpenBoardWithFaults(name string) (*dev, error) { return &dev{}, nil }

type boardModel struct{}

func (m *boardModel) OpenWithFaults(name string) (*dev, error) { return &dev{}, nil }

// discarded: the watchdog timer leaks until the deadline fires.
func leakByBlank() context.Context {
	ctx, _ := context.WithTimeout(context.Background(), time.Second) // want:faultsafety "discarded with _"
	return ctx
}

// released only into a blank assignment — never actually called.
func leakByBlankAssign() context.Context {
	ctx, cancel := context.WithCancel(context.Background()) // want:faultsafety "never released"
	_ = cancel
	return ctx
}

// This file has no fault classification or retry machinery, so every
// fault-point call swallows injected faults as hard errors.
func measure(d *dev, ctx context.Context) error {
	if err := d.LaunchCtx(ctx, "warmup"); err != nil { // want:faultsafety "classifies"
		return err
	}
	return d.RunMeteredCtx(ctx, "bench") // want:faultsafety "classifies"
}

func boot() (*dev, error) {
	return OpenBoardWithFaults("GTX 480") // want:faultsafety "classifies"
}

// a shared board model's boot seam surfaces boot faults the same way.
func bootFromModel(m *boardModel) (*dev, error) {
	return m.OpenWithFaults("GTX 680#0001") // want:faultsafety "classifies"
}
