package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hbat/internal/ckpt"
	"hbat/internal/cpu"
	"hbat/internal/prog"
	"hbat/internal/runspan"
	"hbat/internal/workload"
)

// ckptKey identifies one warmed checkpoint. It deliberately excludes
// the design: checkpoints carry a design-independent warm-reference
// list (see internal/ckpt), so the same functional warm-up serves all
// thirteen TLB designs, the in-order variant, and the virtual-cache
// variant of a grid.
type ckptKey struct {
	workload string
	budget   prog.RegBudget
	scale    workload.Scale
	pageSize uint64
	ffwd     uint64
}

func (s RunSpec) ckptKey() ckptKey {
	return ckptKey{
		workload: s.Workload,
		budget:   s.Budget,
		scale:    s.Scale,
		pageSize: s.PageSize,
		ffwd:     s.FastForward,
	}
}

// ckptEntry is one cached (or in-flight) checkpoint build; done closes
// when c/err are valid. A cancelled build removes its entry so a later
// caller retries, mirroring memoEntry.
type ckptEntry struct {
	done chan struct{}
	c    *ckpt.Checkpoint
	err  error
}

// file returns the key's on-disk path under dir: a fingerprint of the
// key fields, so concurrent processes sharing a CkptDir agree on names.
func (k ckptKey) file(dir string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", k)))
	return filepath.Join(dir, "hbat-"+hex.EncodeToString(sum[:8])+".ckpt")
}

// checkpoint returns the warmed checkpoint for spec, building it at
// most once per key (singleflight) and persisting it under CkptDir
// when one is configured. sp, when non-nil, is the run's "checkpoint"
// phase span: it gets a source attribute (memory / disk / build) and
// child spans for singleflight waits, disk loads, and builds. waited is
// the time spent blocked on another run's in-flight build of the same
// checkpoint — not this run's work, so the cost model leaves it out.
func (e *Engine) checkpoint(ctx context.Context, spec RunSpec, p *prog.Program, cfg cpu.Config, sp *runspan.Span) (c *ckpt.Checkpoint, waited time.Duration, err error) {
	tr := e.Spans()
	rt := sp.Trace()
	key := spec.ckptKey()
	for {
		e.mu.Lock()
		ent := e.ckpts[key]
		if ent == nil {
			ent = &ckptEntry{done: make(chan struct{})}
			e.ckpts[key] = ent
			e.mu.Unlock()
			c, fromDisk, err := e.loadOrBuildCheckpoint(ctx, key, p, cfg, sp)
			if err != nil && isCancelErr(err) {
				// Like a cancelled run: drop the entry so a later
				// caller rebuilds, and wake waiters to retry.
				e.mu.Lock()
				delete(e.ckpts, key)
				e.mu.Unlock()
				ent.err = err
				close(ent.done)
				return nil, waited, err
			}
			if fromDisk {
				e.ckptHits.Add(1)
				sp.SetAttr("source", "disk")
			} else {
				e.ckptMisses.Add(1)
				sp.SetAttr("source", "build")
			}
			ent.c, ent.err = c, err
			close(ent.done)
			return c, waited, err
		}
		e.mu.Unlock()
		// A wait on another run's in-flight warm-up is its own span —
		// opened before the select so /debug/spans shows a stuck
		// singleflight producer as a growing open-span age. A ready
		// entry (done already closed) is a plain memory hit, no span.
		var wsp *runspan.Span
		if tr.Enabled() {
			select {
			case <-ent.done:
			default:
				wsp = tr.Start(rt, sp, "singleflight_wait")
			}
		}
		blocked := time.Now()
		select {
		case <-ctx.Done():
			wsp.End()
			return nil, waited, ctx.Err()
		case <-ent.done:
		}
		waited += time.Since(blocked)
		wsp.End()
		if isCancelErr(ent.err) {
			continue // the producer was cancelled, not us: retry
		}
		e.ckptHits.Add(1)
		sp.SetAttr("source", "memory")
		return ent.c, waited, ent.err
	}
}

// loadOrBuildCheckpoint resolves one checkpoint: from CkptDir when a
// valid file exists (fromDisk=true), otherwise by running the
// functional warm-up (and persisting the result, best-effort). A
// corrupt, truncated, or mismatched file is rebuilt and overwritten —
// the checksum inside the codec makes the load failure explicit rather
// than silent. sp is the run's "checkpoint" phase span (may be nil).
func (e *Engine) loadOrBuildCheckpoint(ctx context.Context, key ckptKey, p *prog.Program, cfg cpu.Config, sp *runspan.Span) (c *ckpt.Checkpoint, fromDisk bool, err error) {
	tr := e.Spans()
	rt := sp.Trace()
	path := ""
	if e.ckptDir != "" {
		path = key.file(e.ckptDir)
		lsp := tr.Start(rt, sp, "ckpt_load")
		c, lerr := ckpt.LoadFile(path)
		ok := lerr == nil && c.PageSize == key.pageSize && c.FastForward == key.ffwd
		if lsp != nil {
			lsp.SetAttr("path", path).SetAttr("ok", strconv.FormatBool(ok)).End()
		}
		if ok {
			return c, true, nil
		}
	}
	bsp := tr.Start(rt, sp, "ckpt_build").SetAttr("engine", ckpt.EngineTranslated)
	sp.SetAttr("engine", ckpt.EngineTranslated)
	c, err = ckpt.Build(ctx, p, ckpt.BuildConfig{
		PageSize:    key.pageSize,
		FastForward: key.ffwd,
		ICache:      cfg.ICache,
		DCache:      cfg.DCache,
		Branch:      cfg.Branch,
	})
	bsp.End()
	if err != nil {
		return nil, false, err
	}
	if path != "" {
		if mkerr := os.MkdirAll(e.ckptDir, 0o755); mkerr == nil {
			if werr := c.SaveFile(path); werr != nil {
				if lg := e.Logger(); lg != nil {
					lg.Warn("checkpoint persist failed", "path", path, "error", werr.Error())
				}
			}
		}
	}
	return c, false, nil
}
