package analysis

import "testing"

// TestLayoutsMatchTags holds each tagged record of the collector state
// to its json tags: encoding/json reads the state through them (the
// fuzz oracle, the _ref benchmark legs), so a key renamed, dropped,
// moved or given another omit rule in one place only must fail here.
func TestLayoutsMatchTags(t *testing.T) {
	for _, err := range []error{
		stateLayout.CheckTags(),
		walkLayout.CheckTags(),
		pairLayout.CheckTags(),
		histogramLayout.CheckTags(),
		ringLayout.CheckTags(),
	} {
		if err != nil {
			t.Error(err)
		}
	}
}
