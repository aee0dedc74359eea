package bounds_test

import (
	"fmt"

	"repro/internal/bounds"
)

// ExampleLogStar shows the iterated logarithm the Theorem 3.5 bound is
// built from.
func ExampleLogStar() {
	for _, k := range []int{2, 16, 65536} {
		fmt.Println(bounds.LogStarInt(k))
	}
	// Output:
	// 1
	// 3
	// 4
}

// ExampleMinRoundsForCount evaluates Lemma 3.1 with the exact influence
// recurrence: a processor announcing count k needs at least this many
// rounds.
func ExampleMinRoundsForCount() {
	fmt.Println(bounds.MinRoundsForCount(1000000))
	// Output:
	// 4
}

// ExampleDiameterLowerBound is the Theorem 3.6 bound for a list of 101
// vertices (diameter 100).
func ExampleDiameterLowerBound() {
	fmt.Println(bounds.DiameterLowerBound(100))
	// Output:
	// 1275
}

// ExampleTow tabulates the tower function beside its inverse, log*;
// tow(5) = 2^65536 is printed by size.
func ExampleTow() {
	for j := 0; j <= 5; j++ {
		tw := bounds.Tow(j)
		if tw.BitLen() > 64 {
			fmt.Printf("tow(%d) = 2^65536 (%d bits)\n", j, tw.BitLen())
			continue
		}
		fmt.Printf("tow(%d) = %v (log* = %d)\n", j, tw, bounds.LogStarInt(int(tw.Int64())))
	}
	// Output:
	// tow(0) = 1 (log* = 0)
	// tow(1) = 2 (log* = 1)
	// tow(2) = 4 (log* = 2)
	// tow(3) = 16 (log* = 3)
	// tow(4) = 65536 (log* = 4)
	// tow(5) = 2^65536 (65537 bits)
}

// ExampleNewRecurrence tabulates the exact influence recurrences a(t) and
// b(t) of Lemmas 3.2–3.4, which grow like a tower.
func ExampleNewRecurrence() {
	r := bounds.NewRecurrence(5)
	for t := range r.A {
		fmt.Printf("%d %s %s\n", t, r.A[t], r.B[t])
	}
	// Output:
	// 0 1 1
	// 1 2 3
	// 2 14 15
	// 3 2954 435
	// 4 3795863414 2570415
	// 5 37036027738710367413772754 19513888517164035
}
