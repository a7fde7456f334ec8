package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Manifest is the run-provenance record emitted alongside sweep
// artifacts (manifest.json): enough to trace any rendered table or
// figure back to the exact tool build, spec list, and seeds that
// produced it, in the reproducible-design-space-sweep discipline the
// TLB-simulation literature relies on.
type Manifest struct {
	// Tool is the emitting binary; Version/GoVersion/VCS* come from
	// runtime/debug.ReadBuildInfo (VCS stamps are absent for `go test`
	// builds and go-run without VCS metadata).
	Tool        string `json:"tool"`
	Version     string `json:"version,omitempty"`
	GoVersion   string `json:"go_version"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	CreatedAt   string `json:"created_at"`

	// Runs is the spec list with seeds and per-run wall times, in
	// completion order (see Engine.RunLog). A long-lived engine keeps
	// the most recent records only; RunsDropped counts the older ones
	// missing from the front of Runs.
	Runs        []RunRecord `json:"runs"`
	RunsDropped uint64      `json:"runs_dropped,omitempty"`
	// Artifacts lists every rendered output with its SHA-256.
	Artifacts []ManifestArtifact `json:"artifacts"`
}

// ManifestArtifact is one rendered output: Path is "-" for artifacts
// streamed to stdout (the hash still covers the rendered bytes).
type ManifestArtifact struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// NewManifest returns a manifest stamped with the build's identity and
// the given creation time.
func NewManifest(tool string, now time.Time) *Manifest {
	m := &Manifest{
		Tool:      tool,
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CreatedAt: now.UTC().Format(time.RFC3339),
		Runs:      []RunRecord{},
		Artifacts: []ManifestArtifact{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.time":
				m.VCSTime = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// RecordRuns copies the engine's provenance log into the manifest.
func (m *Manifest) RecordRuns(e *Engine) {
	m.Runs, m.RunsDropped = e.runLogSnapshot()
}

// AddArtifactBytes records a rendered artifact already held in memory
// (e.g. a report streamed to stdout).
func (m *Manifest) AddArtifactBytes(name, path string, data []byte) {
	sum := sha256.Sum256(data)
	m.Artifacts = append(m.Artifacts, ManifestArtifact{
		Name: name, Path: path,
		SHA256: hex.EncodeToString(sum[:]),
		Bytes:  int64(len(data)),
	})
}

// AddArtifactFile hashes a rendered artifact on disk and records it.
func (m *Manifest) AddArtifactFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return err
	}
	m.Artifacts = append(m.Artifacts, ManifestArtifact{
		Name: name, Path: path,
		SHA256: hex.EncodeToString(h.Sum(nil)),
		Bytes:  n,
	})
	return nil
}

// WriteJSON renders the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
