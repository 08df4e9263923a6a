package core

import (
	"fmt"

	"github.com/reliable-cda/cda/internal/vstore"
)

// DefaultDataRoot is the vstore root name the analytical database is
// versioned under when Config.DataRoot is empty.
const DefaultDataRoot = "data"

// dataRoot resolves the configured root name.
func (s *System) dataRoot() string {
	if s.cfg.DataRoot != "" {
		return s.cfg.DataRoot
	}
	return DefaultDataRoot
}

// CommitData publishes the current analytical database as an
// immutable version at the given turn. The caller decides when data
// changes warrant a new version (ingest, refresh, turn boundary). An
// unchanged re-commit writes nothing and returns the head, which
// already pins the same tree — but learning that it is the same tree
// costs a full encode: every leaf is marshalled and hashed again, O(table)
// CPU and a batch holding the whole encoded tree until it is dropped.
// Fails when the system has no version store.
func (s *System) CommitData(turn int) (vstore.Commit, error) {
	if s.cfg.Versions == nil {
		return vstore.Commit{}, fmt.Errorf("core: no version store configured")
	}
	if s.cfg.DB == nil {
		return vstore.Commit{}, fmt.Errorf("core: no database to version")
	}
	return s.cfg.Versions.CommitDatabase(s.dataRoot(), s.cfg.DB, turn)
}

// DataVersion returns the hash of the data root's head commit, or ""
// when the system is unversioned or nothing was committed yet.
func (s *System) DataVersion() string {
	if s.cfg.Versions == nil {
		return ""
	}
	head, err := s.cfg.Versions.Head(s.dataRoot())
	if err != nil {
		return ""
	}
	return string(head.Hash)
}

// stampDataRoot records the data version an answer was computed
// against: on the Answer itself (wire field) and in the provenance
// answer node's metadata, so the provenance chain pins not just which
// tables fed the answer but which immutable version of them.
func (s *System) stampDataRoot(ans *Answer) {
	root := s.DataVersion()
	if root == "" {
		return
	}
	ans.DataRoot = root
	if ans.Provenance == nil || ans.AnswerNode == "" {
		return
	}
	node, ok := ans.Provenance.Node(ans.AnswerNode)
	if !ok {
		return
	}
	if node.Meta == nil {
		node.Meta = map[string]string{}
	}
	node.Meta["data_root"] = root
	// Re-adding an existing ID replaces label/meta and keeps edges.
	ans.Provenance.AddNode(node)
}
