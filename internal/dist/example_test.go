package dist_test

import (
	"fmt"

	"goodenough/internal/dist"
)

// ExampleFiller_WaterFill distributes a 60 W budget over three cores demanding
// 10, 40 and 40 W: the light core is satisfied first, and the rest of the
// budget is split evenly over the two heavy cores.
func ExampleFiller_WaterFill() {
	alloc := new(dist.Filler).WaterFill(60, []float64{10, 40, 40})
	fmt.Println(alloc)
	// Output:
	// [10 25 25]
}

// ExampleFiller_EqualShare is the light-load policy: every core gets the same
// share regardless of demand, keeping speeds (and the convex power bill)
// uniform.
func ExampleFiller_EqualShare() {
	fmt.Println(new(dist.Filler).EqualShare(320, 16)[0])
	// Output:
	// 20
}
