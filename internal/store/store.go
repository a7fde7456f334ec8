// Package store is the content-addressed result store of the sweep
// fabric: rendered artifacts keyed by spec fingerprint (the engine's
// RunSpec.Hash), verified by SHA-256, held in a bounded in-memory LRU
// over an optional disk layer, with per-tenant admission quotas.
//
// The store never trusts bytes it did not just hash: disk loads
// recompute the content hash and treat a mismatch as a miss (the
// corrupt file is deleted, the caller re-renders). Artifacts are
// immutable — a key maps to exactly one byte sequence, so a Put of
// different bytes under an existing key is rejected rather than
// silently replacing a served artifact. Blobs (PutBlob, GetBlob) are
// owner-less entries, the engine's warmed checkpoints.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrQuota is returned by Put when the writing tenant's attributed
// bytes would exceed the per-tenant quota. The caller maps it to HTTP
// 429.
var ErrQuota = errors.New("store: tenant quota exceeded")

// ErrMismatch is returned by Put when the key already holds different
// bytes — content-addressed entries are immutable.
var ErrMismatch = errors.New("store: key already holds different content")

// ErrNoDisk is returned by PutBlob on a store without a Dir.
var ErrNoDisk = errors.New("store: blobs need a disk layer")

// Config sizes a Store. Zero values mean: memory-only (no Dir),
// a 64 MiB memory layer, unlimited disk, unlimited tenants.
type Config struct {
	// Dir, when non-empty, is the disk layer: one file per artifact or
	// blob, written atomically (temp + fsync + rename), carrying a
	// self-describing header (sha256 + owning tenant, none for a blob)
	// over the raw bytes. An existing directory is re-indexed on New, so
	// a restarted service serves its previous results.
	Dir string
	// MemBytes bounds the in-memory layer (artifact bytes, not index
	// overhead). Least-recently-used artifacts spill to disk-only; with
	// no Dir they are evicted entirely. <= 0 means the 64 MiB default.
	MemBytes int64
	// DiskBytes, when > 0, bounds the disk layer, blobs included;
	// least-recently-used files are deleted once the total exceeds it.
	DiskBytes int64
	// TenantQuotaBytes, when > 0, bounds the live bytes attributed to
	// any one tenant (the tenant whose Put first stored the artifact).
	// Eviction refunds the owning tenant, so the quota bounds resident
	// footprint, not lifetime traffic.
	TenantQuotaBytes int64
}

// Stats is a point-in-time read of the store's counters.
type Stats struct {
	// MemHits/DiskHits/Misses classify Gets. A disk hit re-verifies
	// the content hash and promotes the artifact back into memory.
	MemHits, DiskHits, Misses uint64
	// Puts counts accepted writes; DupPuts counts Puts of bytes the
	// store already held (served as success without rewriting).
	Puts, DupPuts uint64
	// MemEvictions counts artifacts spilled out of the memory layer;
	// DiskEvictions counts files deleted by the disk budget.
	MemEvictions, DiskEvictions uint64
	// Corrupt counts disk loads whose content hash did not match.
	Corrupt uint64
	// Entries/MemBytes/DiskBytes describe current occupancy, blobs included.
	Entries   int
	MemBytes  int64
	DiskBytes int64
}

// entry is one stored artifact, or a blob when tenant is "". data is nil
// while the bytes are on disk only; sha and size describe the content.
type entry struct {
	key    string
	sha    string
	tenant string
	size   int64
	data   []byte
	// onDisk tracks whether the artifact file exists, so accounting
	// survives a failed write (memory-only entry in a disk-backed
	// store) and a disk eviction of a still-hot entry.
	onDisk bool
	elem   *list.Element
}

// Store is a bounded, content-verified artifact cache. Safe for
// concurrent use.
type Store struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry
	// lru orders entries most-recently-used first; spill and eviction
	// walk it from the back. One list covers both layers: an entry's
	// position reflects its last Get/Put regardless of where its bytes
	// live.
	lru       *list.List
	memBytes  int64
	diskBytes int64
	tenants   map[string]int64

	stats Stats
}

const defaultMemBytes = 64 << 20

// New opens a store. With cfg.Dir set, existing artifact and blob files
// are indexed (header-only read) so previous results stay servable;
// files whose header fails to parse are deleted.
func New(cfg Config) (*Store, error) {
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = defaultMemBytes
	}
	s := &Store{
		cfg:     cfg,
		entries: make(map[string]*entry),
		lru:     list.New(),
		tenants: make(map[string]int64),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := s.reindex(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Key reports whether k looks like a spec fingerprint (lowercase hex),
// the only shape the store files under. Rejecting anything else keeps
// path traversal out of the disk layer.
func Key(k string) bool {
	if len(k) == 0 || len(k) > 64 {
		return false
	}
	for _, c := range k {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Tenant reports whether t is a well-formed tenant name: 1-64 of
// [A-Za-z0-9._-]. The tenant is the second space-separated field of an
// artifact file's header line, so anything wider (a space, a newline)
// would make the file unreadable at the next reindex.
func Tenant(t string) bool {
	if len(t) == 0 || len(t) > 64 {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && c != '.' && c != '_' && c != '-' {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.cfg.Dir, key+".art")
}

// header is the first line of an artifact file: "sha256hex tenant\n",
// with an empty tenant for a blob. The raw bytes follow, so the stored
// content hash covers exactly what Get returns.
func header(sha, tenant string) []byte {
	return []byte(sha + " " + tenant + "\n")
}

const maxHeader = 2*sha256.Size + 1 + 64 + 1 // the longest header line

// parseFile splits the start of an artifact file into header fields
// and whatever content follows. The header must be one header wrote: a
// lowercase hex SHA-256, one space, and a well-formed tenant or none.
func parseFile(raw []byte) (sha, tenant string, data []byte, err error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return "", "", nil, errors.New("no header line")
	}
	sha, tenant, ok := strings.Cut(string(raw[:nl]), " ")
	if !ok || len(sha) != 2*sha256.Size || !Key(sha) || (tenant != "" && !Tenant(tenant)) {
		return "", "", nil, errors.New("malformed header")
	}
	return sha, tenant, raw[nl+1:], nil
}

// reindex rebuilds the index from each file's header line and length;
// the first read checks the content. Files without a valid header are
// deleted.
func (s *Store) reindex() error {
	paths, err := filepath.Glob(filepath.Join(s.cfg.Dir, "*.art"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		head := make([]byte, maxHeader)
		n, rerr := io.ReadFull(f, head)
		fi, err := f.Stat()
		f.Close()
		if err != nil || (rerr != nil && rerr != io.ErrUnexpectedEOF && rerr != io.EOF) {
			continue
		}
		key := strings.TrimSuffix(filepath.Base(p), ".art")
		sha, tenant, rest, perr := parseFile(head[:n])
		if perr != nil || !Key(key) {
			os.Remove(p)
			continue
		}
		e := &entry{key: key, sha: sha, tenant: tenant, size: fi.Size() - int64(n-len(rest)), onDisk: true}
		e.elem = s.lru.PushBack(e)
		s.entries[key] = e
		s.diskBytes += e.size
		if tenant != "" {
			s.tenants[tenant] += e.size
		}
	}
	return nil
}

// Get returns the artifact stored under key and its SHA-256 hex. A
// disk-only entry is verified against its recorded hash and promoted
// into the memory layer; a corrupt file is deleted and reported as a
// miss. A blob key is a miss.
func (s *Store) Get(key string) (data []byte, sha string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.entries[key]
	if !found || e.tenant == "" {
		s.stats.Misses++
		return nil, "", false
	}
	if e.data != nil {
		s.stats.MemHits++
		s.lru.MoveToFront(e.elem)
		return e.data, e.sha, true
	}
	if data, ok = s.readLocked(e); !ok {
		s.stats.Misses++
		return nil, "", false
	}
	e.data = data
	s.memBytes += e.size
	s.spillLocked()
	s.stats.DiskHits++
	return data, e.sha, true
}

// GetBlob returns the blob stored under key, read from disk and checked
// against its content hash; it counts in none of Get's counters.
func (s *Store) GetBlob(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, found := s.entries[key]; found && e.tenant == "" {
		return s.readLocked(e)
	}
	return nil, false
}

// readLocked reads and checks e's file and marks e most recently used.
// A missing file drops the entry; a corrupt one is deleted and counted.
func (s *Store) readLocked(e *entry) ([]byte, bool) {
	raw, err := os.ReadFile(s.path(e.key))
	if err != nil {
		s.dropLocked(e)
		return nil, false
	}
	fsha, _, data, perr := parseFile(raw)
	if perr != nil || fsha != e.sha || hash(data) != e.sha {
		os.Remove(s.path(e.key))
		s.dropLocked(e)
		s.stats.Corrupt++
		return nil, false
	}
	s.lru.MoveToFront(e.elem)
	return data, true
}

// Put stores data under key, attributed to tenant, and returns the
// content's SHA-256 hex. Re-putting identical bytes is a cheap no-op;
// different bytes (or a blob) under an existing key return ErrMismatch;
// exceeding the tenant's quota returns ErrQuota before anything is
// written. A malformed key or tenant (see Key, Tenant) is refused.
func (s *Store) Put(tenant, key string, data []byte) (string, error) {
	if !Tenant(tenant) {
		return "", fmt.Errorf("store: invalid tenant %q", tenant)
	}
	return s.put(tenant, key, data)
}

// PutBlob stores data under key as a blob: on disk only, charged to no
// tenant, evicted by the disk budget like any file. It shares Put's
// rules for an existing key, and a store without Dir returns ErrNoDisk.
func (s *Store) PutBlob(key string, data []byte) error {
	if s.cfg.Dir == "" {
		return ErrNoDisk
	}
	_, err := s.put("", key, data)
	return err
}

// put stores an artifact, or a blob when tenant is "" (Puts counts both).
func (s *Store) put(tenant, key string, data []byte) (string, error) {
	if !Key(key) {
		return "", fmt.Errorf("store: invalid key %q", key)
	}
	sha := hash(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, found := s.entries[key]; found {
		if e.sha != sha || (e.tenant == "") != (tenant == "") {
			return "", ErrMismatch
		}
		s.stats.DupPuts++
		s.lru.MoveToFront(e.elem)
		return sha, nil
	}
	size := int64(len(data))
	e := &entry{key: key, sha: sha, tenant: tenant, size: size}
	if tenant != "" {
		if q := s.cfg.TenantQuotaBytes; q > 0 && s.tenants[tenant]+size > q {
			return "", ErrQuota
		}
		e.data = data
		s.memBytes += size
		s.tenants[tenant] += size
	}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.stats.Puts++
	if s.cfg.Dir != "" {
		if err := s.writeFile(key, sha, tenant, data); err != nil {
			// An artifact degrades to memory-only; a blob is gone.
			s.stats.Corrupt++
			if tenant == "" {
				s.dropLocked(e)
				return "", fmt.Errorf("store: %w", err)
			}
		} else {
			e.onDisk = true
			s.diskBytes += size
			s.evictDiskLocked()
		}
	}
	s.spillLocked()
	return sha, nil
}

// writeFile persists one file atomically: temp file, fsync, rename.
func (s *Store) writeFile(key, sha, tenant string, data []byte) error {
	tmp, err := os.CreateTemp(s.cfg.Dir, key+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(header(sha, tenant))
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.path(key))
}

// spillLocked drops in-memory bytes (back of the LRU first) until the
// memory layer fits its budget. With a disk layer the bytes remain
// servable from disk; without one the entry is gone.
func (s *Store) spillLocked() {
	for el := s.lru.Back(); el != nil && s.memBytes > s.cfg.MemBytes; {
		e := el.Value.(*entry)
		el = el.Prev()
		if e.data == nil {
			continue
		}
		e.data = nil
		s.memBytes -= e.size
		s.stats.MemEvictions++
		if !e.onDisk {
			s.dropLocked(e)
		}
	}
}

// evictDiskLocked deletes least-recently-used files until the disk
// layer fits its budget.
func (s *Store) evictDiskLocked() {
	if s.cfg.DiskBytes <= 0 {
		return
	}
	for el := s.lru.Back(); el != nil && s.diskBytes > s.cfg.DiskBytes; {
		e := el.Value.(*entry)
		el = el.Prev()
		if !e.onDisk {
			continue
		}
		os.Remove(s.path(e.key))
		e.onDisk = false
		s.diskBytes -= e.size
		s.stats.DiskEvictions++
		if e.data == nil {
			s.dropLocked(e)
		}
	}
}

// dropLocked removes an entry entirely and refunds its tenant, if any.
func (s *Store) dropLocked(e *entry) {
	if _, found := s.entries[e.key]; !found {
		return
	}
	delete(s.entries, e.key)
	s.lru.Remove(e.elem)
	if e.data != nil {
		s.memBytes -= e.size
	}
	if e.onDisk {
		e.onDisk = false
		s.diskBytes -= e.size
	}
	if e.tenant == "" {
		return
	}
	s.tenants[e.tenant] -= e.size
	if s.tenants[e.tenant] <= 0 {
		delete(s.tenants, e.tenant)
	}
}

// TenantQuota returns the configured per-tenant byte quota (0 means
// unlimited) — the denominator of a quota-utilization gauge.
func (s *Store) TenantQuota() int64 { return s.cfg.TenantQuotaBytes }

// Tenants returns a snapshot of live bytes per tenant — every tenant
// with attributed bytes, for quota-utilization gauges.
func (s *Store) Tenants() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.tenants))
	for t, b := range s.tenants {
		out[t] = b
	}
	return out
}

// Stats returns the store's counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.MemBytes = s.memBytes
	st.DiskBytes = s.diskBytes
	return st
}

// Artifact is one stored artifact as the index describes it.
type Artifact struct {
	Key, SHA256 string
	Size        int64
}

// Keys lists every artifact (no blob) from the index, most recently used
// first, reading no file and moving no entry.
func (s *Store) Keys() []Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Artifact, 0, len(s.entries))
	for el := s.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry); e.tenant != "" {
			out = append(out, Artifact{Key: e.key, SHA256: e.sha, Size: e.size})
		}
	}
	return out
}

func hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
