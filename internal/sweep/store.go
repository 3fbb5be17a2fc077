package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The sweep's persisted JSON stores (the trend store, the profile cache)
// share one load/save discipline, kept here so damage tolerance and
// crash safety are decided once.

// loadStore reads the store at path into v and reports whether v now
// holds its contents. A missing file is an empty store (false, nil). A
// file that exists but no longer parses, or that valid rejects once
// parsed (truncated write, merge damage, a stale format version), is
// moved aside to path+".corrupt" and reported empty too, so one bad file
// costs its contents, not the run — the damaged bytes stay on disk for
// inspection. The caller must not use v after a false return. what
// prefixes error messages.
func loadStore(what, path string, v any, valid func() bool) (bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("%s: %w", what, err)
	}
	if err := json.Unmarshal(data, v); err == nil && (valid == nil || valid()) {
		return true, nil
	}
	if err := os.Rename(path, path+".corrupt"); err != nil {
		return false, fmt.Errorf("%s %s: unreadable (and could not move aside: %w)", what, path, err)
	}
	return false, nil
}

// saveStore writes data (a marshalled store) to path through a
// same-directory temp file and os.Rename, so a crash mid-write leaves
// the previous store intact rather than a truncated one.
func saveStore(what, path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return os.Rename(tmp.Name(), path)
}
