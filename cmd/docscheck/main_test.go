package main

import "testing"

// TestUnusedFuncsFixture runs the no-non-test-caller rule over the fixture
// tree in testdata/unused, where each func or method covers one case.
func TestUnusedFuncsFixture(t *testing.T) {
	got, err := unusedFuncs("testdata/unused")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, u := range got {
		flagged[u.name] = true
	}
	for name, want := range map[string]bool{
		"Controller.OnlyTested":    true,  // called only from a _test.go file and skipped directories
		"helper":                   false, // called from a sibling file
		"drainAll":                 false, // called from a sibling file's init
		"Controller.Measured":      false, // called only from benchmark/
		"ring.Drain":               false, // called only through the Store interface
		"Controller.ContextSwitch": false, // no caller, allow-listed
		"Exported":                 false, // no caller, in the facade package
	} {
		if flagged[name] != want {
			t.Errorf("%s flagged = %v, want %v", name, flagged[name], want)
		}
	}
	if len(got) != 1 {
		t.Errorf("flagged %v, want Controller.OnlyTested alone", got)
	}
	if len(got) > 0 && got[0].pos.Filename != "testdata/unused/core/core.go" {
		t.Errorf("flagged at %s, want testdata/unused/core/core.go", got[0].pos)
	}
}
