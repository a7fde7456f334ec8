package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("artifact body\n")
	sha, err := s.Put("alice", "ab12cd", data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sha) != 64 {
		t.Fatalf("sha = %q, want 64 hex chars", sha)
	}
	got, gsha, ok := s.Get("ab12cd")
	if !ok || string(got) != string(data) || gsha != sha {
		t.Fatalf("Get = %q/%q/%v, want the stored artifact", got, gsha, ok)
	}
	if _, _, ok := s.Get("ffffff"); ok {
		t.Fatal("absent key reported as hit")
	}
	st := s.Stats()
	if st.Puts != 1 || st.MemHits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutImmutability(t *testing.T) {
	s, _ := New(Config{})
	if _, err := s.Put("a", "aa", []byte("one")); err != nil {
		t.Fatal(err)
	}
	// Identical bytes: accepted as a duplicate, not rewritten.
	if _, err := s.Put("b", "aa", []byte("one")); err != nil {
		t.Fatalf("identical re-put rejected: %v", err)
	}
	if _, err := s.Put("a", "aa", []byte("two")); !errors.Is(err, ErrMismatch) {
		t.Fatalf("conflicting re-put: err = %v, want ErrMismatch", err)
	}
	if st := s.Stats(); st.DupPuts != 1 {
		t.Fatalf("DupPuts = %d, want 1", st.DupPuts)
	}
}

func TestKeyValidation(t *testing.T) {
	s, _ := New(Config{})
	for _, bad := range []string{"", "../etc", "ABCDEF", "xyz", "a b"} {
		if _, err := s.Put("t", bad, []byte("x")); err == nil {
			t.Errorf("Put accepted invalid key %q", bad)
		}
	}
}

// TestMemSpillToDisk fills the memory layer past its budget and checks
// cold artifacts are still served — from disk, verified, and promoted.
func TestMemSpillToDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, MemBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	blob := func(i int) []byte { return []byte(fmt.Sprintf("artifact %02d padded to 32 b\n", i)) }
	for i := 0; i < 4; i++ {
		if _, err := s.Put("t", fmt.Sprintf("%02d", i), blob(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemEvictions == 0 {
		t.Fatalf("no memory evictions at 4x budget: %+v", st)
	}
	if st.MemBytes > 64 {
		t.Fatalf("memory layer over budget: %+v", st)
	}
	// Every artifact remains servable; the oldest comes from disk.
	for i := 0; i < 4; i++ {
		got, _, ok := s.Get(fmt.Sprintf("%02d", i))
		if !ok || string(got) != string(blob(i)) {
			t.Fatalf("artifact %d lost after spill", i)
		}
	}
	if st := s.Stats(); st.DiskHits == 0 {
		t.Fatalf("no disk hits: %+v", st)
	}
}

// TestMemOnlyEviction: without a disk layer, spilled artifacts are gone
// and their tenants refunded.
func TestMemOnlyEviction(t *testing.T) {
	s, _ := New(Config{MemBytes: 40})
	for i := 0; i < 3; i++ {
		if _, err := s.Put("t", fmt.Sprintf("%02d", i), make([]byte, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := s.Get("00"); ok {
		t.Fatal("evicted artifact still served")
	}
	if u := s.TenantUsage("t"); u != 40 {
		t.Fatalf("tenant usage = %d, want 40 (evicted bytes refunded)", u)
	}
}

func TestCorruptFileIsMissAndDeleted(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(Config{Dir: dir, MemBytes: 8})
	// Small budget forces the artifact to disk-only immediately.
	if _, err := s.Put("t", "ab", []byte("sixteen byte body")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ab.art")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("ab"); ok {
		t.Fatal("corrupt artifact served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file not deleted")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTenantQuota(t *testing.T) {
	s, _ := New(Config{TenantQuotaBytes: 100})
	if _, err := s.Put("alice", "aa", make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("alice", "bb", make([]byte, 30)); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota put: err = %v, want ErrQuota", err)
	}
	// Another tenant has its own budget.
	if _, err := s.Put("bob", "cc", make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	// A duplicate put of alice's artifact by bob does not charge bob.
	if _, err := s.Put("bob", "aa", make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	if u := s.TenantUsage("bob"); u != 80 {
		t.Fatalf("bob charged for a duplicate: %d", u)
	}
}

// TestDiskBudgetEvicts bounds the disk layer and checks LRU files are
// deleted while recently used ones survive.
func TestDiskBudgetEvicts(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(Config{Dir: dir, MemBytes: 1, DiskBytes: 64})
	for i := 0; i < 4; i++ {
		if _, err := s.Put("t", fmt.Sprintf("%02d", i), make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DiskEvictions == 0 || st.DiskBytes > 64 {
		t.Fatalf("disk budget not enforced: %+v", st)
	}
	if _, _, ok := s.Get("00"); ok {
		t.Fatal("disk-evicted artifact still indexed")
	}
	if _, _, ok := s.Get("03"); !ok {
		t.Fatal("most recent artifact evicted")
	}
}

// TestReindexAcrossRestart: a second store over the same directory
// serves the first store's artifacts and keeps tenant attribution.
func TestReindexAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, _ := New(Config{Dir: dir})
	data := []byte("persisted artifact\n")
	sha, err := s1.Put("alice", "abcd", data)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, gsha, ok := s2.Get("abcd")
	if !ok || string(got) != string(data) || gsha != sha {
		t.Fatalf("restart lost the artifact: %q/%q/%v", got, gsha, ok)
	}
	if u := s2.TenantUsage("alice"); u != int64(len(data)) {
		t.Fatalf("tenant attribution lost: %d", u)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("restart Get not a disk hit: %+v", st)
	}
}

// TestTenantGrammarAcrossRestart: the tenant is a field of the file
// header's one line, so every tenant Put accepts must read back after a
// reopen, and one the line could not hold (a space splits it, a newline
// ends it early) must be refused before it costs the artifact.
func TestTenantGrammarAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("artifact\n")
	good := []string{"default", "team-a", "A.b_c-9", strings.Repeat("x", 64)}
	bad := []string{"", "team a", "a\nb", "tab\there", "\u00fcn\u00ef", strings.Repeat("x", 65)}
	for i, ten := range good {
		if _, err := s1.Put(ten, fmt.Sprintf("a%x", i), data); err != nil {
			t.Fatalf("Put under tenant %q: %v", ten, err)
		}
	}
	for i, ten := range bad {
		if _, err := s1.Put(ten, fmt.Sprintf("b%x", i), data); err == nil {
			t.Errorf("Put accepted tenant %q", ten)
		}
	}

	s2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, ten := range good {
		if _, _, ok := s2.Get(fmt.Sprintf("a%x", i)); !ok {
			t.Errorf("restart lost the artifact stored under tenant %q", ten)
		}
		if u := s2.TenantUsage(ten); u != int64(len(data)) {
			t.Errorf("tenant %q: %d bytes attributed after restart, want %d", ten, u, len(data))
		}
	}
	if st := s2.Stats(); st.Entries != len(good) || st.Corrupt != 0 {
		t.Errorf("after restart: %+v, want %d clean entries", st, len(good))
	}
}

// TestKeysOrder: Keys lists artifacts most recently used first, each
// with its content hash and size, and listing touches nothing: a second
// listing is the same and the counters do not move.
func TestKeysOrder(t *testing.T) {
	s, _ := New(Config{})
	for _, k := range []string{"aa", "bb", "cc"} {
		s.Put("t", k, []byte(k+"-bytes"))
	}
	s.Get("aa") // touch: aa becomes most recent
	before := s.Stats()
	keys := s.Keys()
	var order []string
	for _, a := range keys {
		order = append(order, a.Key)
		if want := (Artifact{a.Key, hash([]byte(a.Key + "-bytes")), 8}); a != want {
			t.Errorf("listed %+v, want %+v", a, want)
		}
	}
	if want := []string{"aa", "cc", "bb"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("Keys() order = %v, want %v", order, want)
	}
	if again := s.Keys(); !reflect.DeepEqual(again, keys) {
		t.Fatalf("a second Keys() = %v, want %v: listing moved entries", again, keys)
	}
	if st := s.Stats(); st != before {
		t.Fatalf("listing moved the counters: %+v, was %+v", st, before)
	}
}

// TestBlobsLiveOnDiskAndOwnNothing: a blob is written to disk only,
// charged to no tenant and listed nowhere; Get never serves one, and
// the disk budget evicts it with everything else.
func TestBlobsLiveOnDiskAndOwnNothing(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), DiskBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("alice", "aa", []byte("artifact")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	tenants, keys := s.Tenants(), s.Keys()

	blob := make([]byte, 40)
	if err := s.PutBlob("b0", blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetBlob("b0")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("GetBlob = %q/%v, want the blob", got, ok)
	}
	if _, _, ok := s.Get("b0"); ok {
		t.Fatal("Get served a blob")
	}
	if _, ok := s.GetBlob("aa"); ok {
		t.Fatal("GetBlob served an artifact")
	}
	st := s.Stats()
	if st.MemBytes != before.MemBytes || st.MemEvictions != before.MemEvictions {
		t.Fatalf("a blob touched the memory layer: %+v, was %+v", st, before)
	}
	if !reflect.DeepEqual(s.Tenants(), tenants) || !reflect.DeepEqual(s.Keys(), keys) {
		t.Fatalf("a blob is charged or listed: tenants %v keys %v, were %v %v", s.Tenants(), s.Keys(), tenants, keys)
	}
	if st.DiskBytes != before.DiskBytes+40 {
		t.Fatalf("DiskBytes = %d, want %d plus the blob's 40", st.DiskBytes, before.DiskBytes)
	}

	// Two more blobs overflow the 100-byte budget: the least recently
	// used file goes, blob or not.
	for _, k := range []string{"b1", "b2"} {
		if err := s.PutBlob(k, blob); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Stats()
	if st.DiskEvictions == 0 || st.DiskBytes > 100 {
		t.Fatalf("disk budget not enforced over blobs: %+v", st)
	}
	if _, ok := s.GetBlob("b2"); !ok {
		t.Fatal("the newest blob was evicted")
	}
	if !reflect.DeepEqual(s.Tenants(), tenants) {
		t.Fatalf("tenants after evictions: %v, were %v", s.Tenants(), tenants)
	}
}

// TestBlobKeysAreNotArtifacts: a key holds an artifact or a blob, not
// both, and a blob survives a restart as a blob.
func TestBlobKeysAreNotArtifacts(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(Config{Dir: dir})
	if err := s.PutBlob("bb", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("t", "bb", []byte("blob")); !errors.Is(err, ErrMismatch) {
		t.Fatalf("Put over a blob: err = %v, want ErrMismatch", err)
	}
	if _, err := s.Put("t", "aa", []byte("art")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlob("aa", []byte("art")); !errors.Is(err, ErrMismatch) {
		t.Fatalf("PutBlob over an artifact: err = %v, want ErrMismatch", err)
	}

	s2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.GetBlob("bb"); !ok || string(got) != "blob" {
		t.Fatalf("restart lost the blob: %q/%v", got, ok)
	}
	if keys := s2.Keys(); len(keys) != 1 || keys[0].Key != "aa" {
		t.Fatalf("Keys after restart = %v, want only the artifact", keys)
	}
	if st := s2.Stats(); st.Entries != 2 || st.DiskBytes != 7 {
		t.Fatalf("after restart: %+v, want 2 entries and 7 disk bytes", st)
	}
}

// TestBlobNeedsDisk: without a disk layer there is nowhere to keep a
// blob, so PutBlob refuses it and nothing is stored.
func TestBlobNeedsDisk(t *testing.T) {
	s, _ := New(Config{})
	if err := s.PutBlob("aa", []byte("blob")); !errors.Is(err, ErrNoDisk) {
		t.Fatalf("PutBlob without Dir: err = %v, want ErrNoDisk", err)
	}
	if _, ok := s.GetBlob("aa"); ok {
		t.Fatal("a refused blob is served")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("a refused blob is stored: %+v", st)
	}
}

// TestCorruptBlobIsMissAndDeleted: GetBlob checks the content hash on
// every read, as Get does on a disk load.
func TestCorruptBlobIsMissAndDeleted(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(Config{Dir: dir})
	if err := s.PutBlob("cc", []byte("sixteen byte body")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cc.art")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBlob("cc"); ok {
		t.Fatal("corrupt blob served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt blob not deleted")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 || st.DiskBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
