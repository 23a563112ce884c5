package block

import (
	"strings"
	"testing"
)

func TestInvalidID(t *testing.T) {
	if Invalid.Valid() {
		t.Error("Invalid must not be valid")
	}
	if !ID(0).Valid() || !ID(1<<30).Valid() {
		t.Error("ordinary IDs must be valid")
	}
}

func TestIDString(t *testing.T) {
	if got := ID(42).String(); got != "blk42" {
		t.Errorf("String = %q", got)
	}
	if got := Invalid.String(); !strings.Contains(got, "dummy") {
		t.Errorf("Invalid String = %q", got)
	}
}

func TestNoLeaf(t *testing.T) {
	if NoLeaf.Valid() {
		t.Error("NoLeaf must not be valid")
	}
	if !Leaf(0).Valid() {
		t.Error("leaf 0 must be valid")
	}
}

func TestPathTypeNames(t *testing.T) {
	want := map[PathType]string{
		PathData:  "PTd",
		PathPos1:  "PTp(Pos1)",
		PathPos2:  "PTp(Pos2)",
		PathDummy: "PTm",
		PathEvict: "BgEvict",
		PathDWB:   "DWB",
	}
	for pt, name := range want {
		if pt.String() != name {
			t.Errorf("%d: %q, want %q", pt, pt.String(), name)
		}
	}
	if !strings.Contains(PathType(99).String(), "99") {
		t.Error("unknown PathType should include the raw value")
	}
	if NumPathTypes != len(want) {
		t.Errorf("NumPathTypes = %d, want %d", NumPathTypes, len(want))
	}
}

func TestPathTypeSlugs(t *testing.T) {
	want := []string{"ptd", "ptp1", "ptp2", "ptm", "evict", "dwb"}
	if len(want) != NumPathTypes {
		t.Fatalf("%d slugs for %d path types", len(want), NumPathTypes)
	}
	for pt, slug := range want {
		if got := PathType(pt).Slug(); got != slug {
			t.Errorf("%v: slug %q, want %q", PathType(pt), got, slug)
		}
	}
	if got := PathType(99).Slug(); got != "pt99" {
		t.Errorf("unknown path type slug %q, want pt99", got)
	}
}
