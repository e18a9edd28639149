package main

import (
	"fmt"

	mylib "example.com/fixture/internal/lib"
)

func main() {
	var t mylib.T
	t.Live()
	fmt.Println(mylib.Used(), t)
}
