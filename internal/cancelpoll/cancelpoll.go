// Package cancelpoll is the single definition of cooperative
// cancellation polling for the simulator's long-running loops. Three
// loops honor context cancellation — the cycle simulator (per cycle),
// the interpreted functional emulator (per instruction), and the
// superblock-translated engine (per block) — and all three must agree
// on how often they look at the context: fine-grained enough that a
// cancelled sweep stops within microseconds of wall time, coarse
// enough that the channel poll never shows up in a profile. That
// granularity is specified here, once, as Every, and tested in exactly
// one place (this package's tests) instead of being re-derived as a
// private mask by every loop.
package cancelpoll

import (
	"context"
	"sync/atomic"
)

// Every is the polling granularity in loop steps (cycles for the
// timing core, instructions for the functional engines): a poller is
// Due every Every steps. It is a power of two so the due check is a
// single mask.
//
// The superblock engine bounds its blocks to at most Every
// instructions and polls at every block boundary, so its cancellation
// latency is at most one block — never worse than the interpreted
// loops' Every-instruction granularity.
const Every = 4096

// mask implements Due; Every must stay a power of two.
const mask = Every - 1

// Poller is a context's cancellation state, prepared for cheap polling
// inside a hot loop. The zero Poller (or one built from a nil or
// never-cancellable context) is disabled: Due always reports false and
// Err always returns nil, so the loop's fast path is one nil
// comparison.
type Poller struct {
	ctx     context.Context
	done    <-chan struct{}
	tripped *atomic.Bool
}

// New prepares a poller for ctx. A nil ctx, or one whose Done channel
// is nil (context.Background and friends), yields a disabled poller.
// A context already cancelled at construction trips the poller
// synchronously, so Tripped is deterministic for pre-cancelled
// contexts.
func New(ctx context.Context) Poller {
	if ctx == nil || ctx.Done() == nil {
		return Poller{}
	}
	p := Poller{ctx: ctx, done: ctx.Done(), tripped: new(atomic.Bool)}
	if ctx.Err() != nil {
		p.tripped.Store(true)
	} else {
		t := p.tripped
		context.AfterFunc(ctx, func() { t.Store(true) })
	}
	return p
}

// Due reports whether step is a polling point: every Every steps, and
// never for a disabled poller. Loops call Due with their step counter
// and only pay for a channel poll when it returns true.
func (p Poller) Due(step uint64) bool { return p.done != nil && step&mask == 0 }

// Tripped reports whether the context is known to be cancelled, as one
// atomic load — cheap enough for a superblock dispatch loop to call at
// every block boundary. Unlike Err it can lag a concurrent cancel by
// goroutine-scheduling latency (microseconds); a context cancelled
// before New is observed immediately. Callers follow a true Tripped
// with Err for the context's error.
func (p Poller) Tripped() bool { return p.tripped != nil && p.tripped.Load() }

// Err polls the context without blocking: it returns the context's
// error once cancelled and nil before that (or always nil for a
// disabled poller).
func (p Poller) Err() error {
	if p.done == nil {
		return nil
	}
	select {
	case <-p.done:
		return p.ctx.Err()
	default:
		return nil
	}
}
