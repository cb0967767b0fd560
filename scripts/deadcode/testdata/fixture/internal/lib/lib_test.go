package lib

import "testing"

func TestOwn(t *testing.T) {
	if ownTestHelper() != 1 {
		t.Fatal("ownTestHelper")
	}
}

func TestKnobs(t *testing.T) {
	k := Knobs{TestSet: 1}
	if k.TestSet != 1 {
		t.Fatal("TestSet")
	}
}
