package emit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Manifest is the saved verdict an emit run leaves at the emit root:
// which sketch was synthesized and which candidate directories were
// written. pskemit -dir reloads it to rank them without re-synthesizing.
type Manifest struct {
	// Sketch is the harness (or sketch file) the candidates came from.
	Sketch string `json:"sketch"`
	// Candidates lists the emitted packages, in enumeration order.
	Candidates []ManifestEntry `json:"candidates"`
	// Ranked holds the last ranking pass's measurements, fastest
	// first, when one was run.
	Ranked []Measurement `json:"ranked,omitempty"`
}

// ManifestEntry records one emitted candidate.
type ManifestEntry struct {
	// Name is the candidate's directory name under the emit root.
	Name string `json:"name"`
	// Candidate is the hole assignment.
	Candidate []int64 `json:"candidate"`
	// Code is the resolved sketch in model syntax.
	Code string `json:"code"`
	// Ops is the load-harness op mix.
	Ops []string `json:"ops"`
}

// ManifestName is the manifest's file name under the emit root.
const ManifestName = "manifest.json"

// WriteManifest saves m at dir/manifest.json.
func WriteManifest(dir string, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(b, '\n'), 0o644)
}

// ReadManifest loads dir/manifest.json.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("emit: no manifest in %s (expected a directory written by psketch -emit-dir): %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("emit: corrupt manifest in %s: %w", dir, err)
	}
	return &m, nil
}

// CandidateDirs returns the absolute candidate directories of a
// manifest, in enumeration order.
func (m *Manifest) CandidateDirs(root string) []string {
	dirs := make([]string, 0, len(m.Candidates))
	for _, c := range m.Candidates {
		dirs = append(dirs, filepath.Join(root, c.Name))
	}
	return dirs
}
