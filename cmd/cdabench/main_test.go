package main

import (
	"strings"
	"testing"
)

func TestSelectIDs(t *testing.T) {
	ids := []string{"e1", "e2", "e9", "scorecard"}
	all, err := selectIDs(ids, "")
	if err != nil || len(all) != len(ids) {
		t.Fatalf("empty -only = %v, %v; want every id", all, err)
	}
	got, err := selectIDs(ids, " E9, scorecard,")
	if err != nil || len(got) != 2 || !got["e9"] || !got["scorecard"] {
		t.Errorf("-only e9,scorecard = %v, %v; want exactly those two", got, err)
	}
	_, err = selectIDs(ids, "e1,e11")
	if err == nil || !strings.Contains(err.Error(), `"e11"`) || !strings.Contains(err.Error(), "e1, e2, e9, scorecard") {
		t.Errorf("-only e1,e11 error = %v; want it to name e11 and the valid ids", err)
	}
}
