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
	"hbat/internal/spans"
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

// file returns the key's on-disk path under dir: a fingerprint of the
// key fields, so concurrent processes sharing a CkptDir agree on names.
func (k ckptKey) file(dir string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", k)))
	return filepath.Join(dir, "hbat-"+hex.EncodeToString(sum[:8])+".ckpt")
}

// checkpoint returns the warmed checkpoint for spec through the
// checkpoint cache, persisting it under CkptDir when one is configured.
// sp, when non-nil, is the run's "checkpoint" phase span: it gets a
// source attribute (memory / disk / build) and child spans for
// singleflight waits, disk loads, and builds. Time blocked on another
// run's build of the same checkpoint is added to *waited.
func (e *Engine) checkpoint(ctx context.Context, spec RunSpec, p *prog.Program, cfg cpu.Config, sp *spans.Span, waited *time.Duration) (*ckpt.Checkpoint, error) {
	key := spec.ckptKey()
	c, err, hit := e.ckpts.do(ctx, key, func() (*ckpt.Checkpoint, error) {
		return e.loadOrBuildCheckpoint(ctx, key, p, cfg, sp)
	}, e.waitHook(sp, waited))
	if hit {
		e.ckptHits.Add(1)
		sp.SetAttr("source", "memory")
	}
	return c, err
}

// loadOrBuildCheckpoint resolves one checkpoint: from CkptDir when a
// valid file exists (a hit, source=disk), otherwise by running the
// functional warm-up (a miss, source=build) and persisting the result,
// best-effort. A corrupt, truncated, or mismatched file is rebuilt and
// overwritten — the checksum inside the codec makes the load failure
// explicit rather than silent. sp is the run's "checkpoint" phase span
// (may be nil).
func (e *Engine) loadOrBuildCheckpoint(ctx context.Context, key ckptKey, p *prog.Program, cfg cpu.Config, sp *spans.Span) (*ckpt.Checkpoint, error) {
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
			e.ckptHits.Add(1)
			sp.SetAttr("source", "disk")
			return c, nil
		}
	}
	bsp := tr.Start(rt, sp, "ckpt_build")
	c, err := ckpt.Build(ctx, p, ckpt.BuildConfig{
		PageSize:    key.pageSize,
		FastForward: key.ffwd,
		ICache:      cfg.ICache,
		DCache:      cfg.DCache,
		Branch:      cfg.Branch,
	})
	bsp.End()
	if isCancelErr(err) {
		return nil, err
	}
	e.ckptMisses.Add(1)
	sp.SetAttr("source", "build")
	if err != nil {
		return nil, err
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
	return c, nil
}
