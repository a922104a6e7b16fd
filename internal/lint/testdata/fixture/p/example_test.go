package p_test

import (
	"fmt"

	"fixture/p"
)

func ExampleFromExample() {
	fmt.Println(p.FromExample())
	// Output: 3
}
