package spans

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadJournal feeds arbitrary bytes to ReadJournal, which must not
// panic. Whatever it accepts is written back out by WriteJournalTo and
// must read back as the same spans; and every cut of that journal past
// its header line — a crash mid-append — must read without error as a
// prefix of them holding every record the cut left whole. The seed
// corpus under testdata/fuzz covers a valid journal, torn tails, bad
// headers and versions, and a bad record before the last line.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_, spans, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		tr := New()
		tr.mu.Lock()
		for _, d := range spans {
			tr.finishLocked(d)
		}
		tr.mu.Unlock()
		var out bytes.Buffer
		if err := tr.WriteJournalTo(&out, ""); err != nil {
			t.Fatal(err)
		}
		journal := out.Bytes()
		_, again, err := ReadJournal(bytes.NewReader(journal))
		if err != nil {
			t.Fatalf("reading back a written journal: %v", err)
		}
		want := encodeSpans(t, spans)
		if got := encodeSpans(t, again); !bytes.Equal(got, want) {
			t.Fatalf("spans changed across a write and read:\n%s\nvs\n%s", got, want)
		}

		headerEnd := bytes.IndexByte(journal, '\n') + 1
		step := max(1, len(journal)/256)
		for cut := headerEnd; cut <= len(journal); cut += step {
			_, torn, err := ReadJournal(bytes.NewReader(journal[:cut]))
			if err != nil {
				t.Fatalf("journal cut at byte %d of %d: %v", cut, len(journal), err)
			}
			whole := bytes.Count(journal[headerEnd:cut], []byte{'\n'})
			if len(torn) < whole || len(torn) > len(spans) ||
				!bytes.Equal(encodeSpans(t, torn), encodeSpans(t, again[:len(torn)])) {
				t.Fatalf("journal cut at byte %d of %d read %d spans, want a prefix of the %d with the %d whole records",
					cut, len(journal), len(torn), len(spans), whole)
			}
		}
	})
}

func encodeSpans(t *testing.T, spans []SpanData) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, d := range spans {
		line, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	return b.Bytes()
}
