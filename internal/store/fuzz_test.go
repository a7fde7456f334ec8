package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreReindex puts arbitrary bytes where an artifact file lives
// and opens a store over the directory. Opening never fails or panics.
// A file exactly as Put writes it — header(hash(content), tenant) over
// the content, for a well-formed tenant — is served with its hash and
// charged to its tenant, and Put of the same content rewrites it byte
// for byte. Anything else is a miss that leaves no file and charges
// nobody. The seed corpus under testdata/fuzz covers a valid file, an
// empty artifact, and each way a header or body can be wrong.
func FuzzStoreReindex(f *testing.F) {
	const key = "0123abcd"
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, key+".art")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatalf("New over a directory with one artifact file: %v", err)
		}
		data, sha, ok := s.Get(key)

		nl := bytes.IndexByte(raw, '\n')
		valid := nl > 65
		var tenant string
		var content []byte
		if valid {
			tenant, content = string(raw[65:nl]), raw[nl+1:]
			valid = Tenant(tenant) && bytes.Equal(raw[:nl+1], header(hash(content), tenant))
		}
		if !valid {
			if ok {
				t.Fatalf("a malformed file was served: %q", data)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("a malformed file survived the miss: stat err %v", err)
			}
			if st := s.Stats(); st.Entries != 0 || st.DiskBytes != 0 || len(s.Tenants()) != 0 {
				t.Fatalf("a malformed file is still accounted: %+v, tenants %v", st, s.Tenants())
			}
			return
		}
		if !ok || !bytes.Equal(data, content) || sha != hash(content) {
			t.Fatalf("a valid file was not served: ok=%v sha=%s", ok, sha)
		}
		if got := s.TenantUsage(tenant); got != int64(len(content)) {
			t.Fatalf("tenant %q charged %d bytes, want %d", tenant, got, len(content))
		}

		fresh, err := New(Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Put(tenant, key, content); err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(fresh.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, raw) {
			t.Fatalf("Put wrote %q for the content of a valid file %q", written, raw)
		}
	})
}
