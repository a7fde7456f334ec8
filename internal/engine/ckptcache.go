package engine

import (
	"context"
	"crypto/sha256"
	"fmt"
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

// BlobStore is the durable tier of warmed checkpoints: *store.Store's
// owner-less blobs, on disk only and bounded by the store's disk budget.
type BlobStore interface {
	GetBlob(key string) ([]byte, bool)
	PutBlob(key string, data []byte) error
}

// storeKey names the checkpoint in a BlobStore: 48 hex characters of
// SHA-256 over all but the depth, with the cache and predictor
// configuration the warm-up fills, then the depth as 16. Every depth of
// one program shares a prefix.
func (k ckptKey) storeKey(cfg cpu.Config) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%q %#v %#v %d %#v %#v %#v",
		k.workload, k.budget, k.scale, k.pageSize, cfg.ICache, cfg.DCache, cfg.Branch))
	return fmt.Sprintf("%x%016x", sum[:24], k.ffwd)
}

// checkpoint returns the warmed checkpoint for spec through the
// checkpoint cache, persisting it in the checkpoint store when one is
// configured.
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

// loadOrBuildCheckpoint resolves one checkpoint: from the checkpoint
// store when it holds a valid blob (a hit, source=disk), otherwise by
// running the functional warm-up (a miss, source=build) and storing
// the result, best-effort. A blob failing the store's hash, the codec
// or the key is rebuilt. sp is the "checkpoint" span (may be nil).
func (e *Engine) loadOrBuildCheckpoint(ctx context.Context, key ckptKey, p *prog.Program, cfg cpu.Config, sp *spans.Span) (*ckpt.Checkpoint, error) {
	tr := e.Spans()
	rt := sp.Trace()
	skey := ""
	if e.ckptStore != nil {
		skey = key.storeKey(cfg)
		lsp := tr.Start(rt, sp, "ckpt_load")
		data, ok := e.ckptStore.GetBlob(skey)
		c, derr := ckpt.Decode(data)
		ok = ok && derr == nil && c.PageSize == key.pageSize && c.FastForward == key.ffwd
		if lsp != nil {
			lsp.SetAttr("key", skey).SetAttr("ok", strconv.FormatBool(ok)).End()
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
	if skey != "" {
		if werr := e.ckptStore.PutBlob(skey, c.Encode()); werr != nil {
			if lg := e.Logger(); lg != nil {
				lg.Warn("checkpoint persist failed", "key", skey, "error", werr.Error())
			}
		}
	}
	return c, nil
}
