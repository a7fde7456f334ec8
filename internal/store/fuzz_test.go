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
// the content, for a well-formed tenant — is served by Get with its
// hash and charged to its tenant, and Put of the same content rewrites
// it byte for byte. A file as PutBlob writes it, with no tenant, is
// served by GetBlob alone, charged to nobody and listed nowhere, and
// PutBlob rewrites it byte for byte. Anything else is a miss that
// leaves no file and charges nobody. The seed corpus under testdata/
// fuzz covers a valid file, an empty artifact, a blob, and each way a
// header or body can be wrong.
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
		blob, blobOK := s.GetBlob(key)

		nl := bytes.IndexByte(raw, '\n')
		valid := nl >= 65
		var tenant string
		var content []byte
		if valid {
			tenant, content = string(raw[65:nl]), raw[nl+1:]
			valid = (tenant == "" || Tenant(tenant)) && bytes.Equal(raw[:nl+1], header(hash(content), tenant))
		}
		if !valid {
			if ok || blobOK {
				t.Fatalf("a malformed file was served: %q %q", data, blob)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("a malformed file survived the miss: stat err %v", err)
			}
			if st := s.Stats(); st.Entries != 0 || st.DiskBytes != 0 || len(s.Tenants()) != 0 {
				t.Fatalf("a malformed file is still accounted: %+v, tenants %v", st, s.Tenants())
			}
			return
		}

		fresh, err := New(Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if tenant == "" {
			if ok || !blobOK || !bytes.Equal(blob, content) {
				t.Fatalf("a valid blob: Get ok=%v, GetBlob ok=%v", ok, blobOK)
			}
			if st := s.Stats(); len(s.Tenants()) != 0 || len(s.Keys()) != 0 || st.MemBytes != 0 || st.DiskBytes != int64(len(content)) {
				t.Fatalf("a blob is charged or listed: %+v, tenants %v, keys %v", st, s.Tenants(), s.Keys())
			}
			if err := fresh.PutBlob(key, content); err != nil {
				t.Fatal(err)
			}
		} else {
			if !ok || !bytes.Equal(data, content) || sha != hash(content) || blobOK {
				t.Fatalf("a valid file was not served: ok=%v sha=%s, GetBlob ok=%v", ok, sha, blobOK)
			}
			if got := s.TenantUsage(tenant); got != int64(len(content)) {
				t.Fatalf("tenant %q charged %d bytes, want %d", tenant, got, len(content))
			}
			if _, err := fresh.Put(tenant, key, content); err != nil {
				t.Fatal(err)
			}
		}
		written, err := os.ReadFile(fresh.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, raw) {
			t.Fatalf("a put wrote %q for the content of a valid file %q", written, raw)
		}
	})
}
