package other

import (
	"testing"

	"fixture/internal/lib"
)

func TestShared(t *testing.T) {
	if lib.SharedTestHelper() != 2 {
		t.Fatal("SharedTestHelper")
	}
}
