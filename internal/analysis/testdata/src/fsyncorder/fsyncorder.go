// Package fixture is deliberately broken test input for the
// fsync-order analyzer: the session store's write-temp → fsync →
// rename protocol with the Sync deleted or branch-skipped.
package fixture

import "os"

// publishNoSync is an atomic publish with the Sync call deleted: the
// rename can publish a name whose bytes are not on disk.
func publishNoSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path) // flagged: unsynced writes reach the rename
}

// publishBranchSkipsSync syncs on the slow path only; the fast path
// reaches the rename dirty.
func publishBranchSkipsSync(path string, data []byte, fast bool) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if !fast {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path) // flagged: the fast branch skipped Sync
}

// publishDurable is the correct protocol: every path to the rename
// passes through Sync.
func publishDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// renameUntracked renames a path no tracked file was opened from;
// nothing to check.
func renameUntracked(from, to string) error {
	return os.Rename(from, to)
}

// suppressedFastPublish exercises directive scoping over a multi-line
// statement: the rename call spans several lines, and the directive
// above it must cover the whole statement.
func suppressedFastPublish(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	f.Close()
	// cdalint:ignore fsync-order -- scratch files are rebuilt from the WAL on crash
	return os.Rename(
		tmp,
		path,
	)
}
