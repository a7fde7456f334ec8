package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hbat/api"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/vm"
	"hbat/internal/workload"
)

// ParseScale maps a wire scale name to a workload.Scale.
func ParseScale(s string) (workload.Scale, error) {
	switch s {
	case "", "small":
		return workload.ScaleSmall, nil
	case "test":
		return workload.ScaleTest, nil
	case "full":
		return workload.ScaleFull, nil
	}
	return 0, fmt.Errorf("unknown scale %q (test, small, full)", s)
}

// SpecError is SpecFromWire's refusal of a spec: the wire field at
// fault and why. Its message is the reason alone.
type SpecError struct {
	Field string
	Err   error
}

func (e *SpecError) Error() string { return e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }

// SpecFromWire normalizes an api.SimOptions into a RunSpec, applying
// the same defaults the hbat facade applies (workload "compress",
// design "T4", page size 4096, seed 1, 8-register budget under
// FewRegisters). It is the single normalization point shared by the
// facade and the sweep service, which is what makes a spec submitted
// over the wire hit the memo entry a local run produced — and vice
// versa. A spec it accepts runs (FuzzSpecRuns); one it refuses comes
// back as a *SpecError.
func SpecFromWire(o api.SimOptions) (RunSpec, error) {
	scale, err := ParseScale(o.Scale)
	if err != nil {
		return RunSpec{}, &SpecError{"scale", err}
	}
	spec := RunSpec{
		Workload:           o.Workload,
		Design:             o.Design,
		Budget:             prog.Budget32,
		Scale:              scale,
		PageSize:           o.PageSize,
		InOrder:            o.InOrder,
		Seed:               o.Seed,
		MaxInsts:           o.MaxInsts,
		FastForward:        o.FastForward,
		VirtualCache:       o.VirtualCache,
		ContextSwitchEvery: o.ContextSwitchEvery,
		Lockstep:           o.Lockstep,
	}
	if spec.Workload == "" {
		spec.Workload = "compress"
	}
	if spec.Design == "" {
		spec.Design = "T4"
	}
	if spec.PageSize == 0 {
		spec.PageSize = 4096
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if o.FewRegisters {
		spec.Budget = prog.Budget8
	}
	if _, err := workload.ByName(spec.Workload); err != nil {
		return RunSpec{}, &SpecError{"workload", err}
	}
	if _, err := tlb.LookupSpec(spec.Design); err != nil {
		return RunSpec{}, &SpecError{"design", err}
	}
	if err := vm.CheckPageSize(spec.PageSize); err != nil {
		return RunSpec{}, &SpecError{"page_size", err}
	}
	if spec.PageSize > prog.MaxPageSize {
		return RunSpec{}, &SpecError{"page_size", fmt.Errorf("page size %d exceeds the program layout's %d", spec.PageSize, prog.MaxPageSize)}
	}
	return spec, nil
}

// Wire renders a completed run as the canonical api.Result: the
// deterministic outcome fields only, so every producer of the same
// spec renders the identical artifact.
func Wire(res RunResult) api.Result {
	spec := res.Spec
	return api.Result{
		API:     api.Version,
		SpecKey: spec.Hash(),
		Spec:    spec.String(),

		Design:   spec.Design,
		Workload: spec.Workload,

		Cycles:        res.Stats.Cycles,
		Instructions:  res.Stats.Committed,
		Loads:         res.Stats.CommittedLoads,
		Stores:        res.Stats.CommittedStores,
		FastForwarded: res.Stats.FastForwarded,

		IPC:            res.Stats.IPC(),
		IssueIPC:       res.Stats.IssueIPC(),
		MemPerCycle:    res.Stats.MemPerCycle(),
		BranchPredRate: res.Stats.BranchRate(),

		TLBLookups:    res.TLB.Lookups,
		TLBMisses:     res.TLB.Misses,
		TLBWalks:      res.TLB.Fills,
		Piggybacks:    res.TLB.Piggybacks,
		ShieldHits:    res.TLB.ShieldHits,
		NoPortRetries: res.TLB.NoPorts,
		StatusWrites:  res.TLB.StatusWrites,

		FetchStallCycles:  res.Stats.FetchStallCycles(),
		DispatchTLBStalls: res.Stats.DispatchTLBStalls,
		DispatchROBFull:   res.Stats.DispatchROBFull,
		DispatchLSQFull:   res.Stats.DispatchLSQFull,
	}
}

// Artifact renders an api.Result as its canonical byte form — indented
// JSON with a trailing newline. Every layer (facade, store, transport)
// renders through this one function, which is what makes artifact
// SHA-256s comparable across producers.
func Artifact(r api.Result) []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// api.Result contains only marshalable scalars; this is
		// unreachable short of memory corruption.
		panic(err)
	}
	return append(b, '\n')
}

// ArtifactSHA256 returns the hex SHA-256 of an artifact's bytes — the
// store key digest and the HTTP ETag.
func ArtifactSHA256(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
