package core

import "testing"

// TestLayoutsMatchTags holds each tagged snapshot record's layout to its
// json tags: encoding/json reads the files through them (the fuzz
// oracle, the _ref benchmark legs), so a key renamed, dropped, moved or
// given another omit rule in one place only must fail here.
func TestLayoutsMatchTags(t *testing.T) {
	for _, err := range []error{
		snapshotLayout.CheckTags(),
		replicaLayout.CheckTags(),
		respaceLayout.CheckTags(),
	} {
		if err != nil {
			t.Error(err)
		}
	}
}
