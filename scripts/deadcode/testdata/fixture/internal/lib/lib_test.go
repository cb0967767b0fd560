package lib

import "testing"

func TestOwn(t *testing.T) {
	if ownTestHelper() != 1 {
		t.Fatal("ownTestHelper")
	}
}
