package p

import (
	"fmt"
	"testing"
)

func TestOnlyTested(t *testing.T) {
	if onlyTested() != 2 {
		t.Fatal(dead())
	}
}

func ExampleRun() {
	fmt.Println(fromInternalExample())
	// Output: 4
}
