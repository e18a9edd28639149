package main

import (
	"fmt"

	mylib "example.com/fixture/internal/lib"
)

func main() {
	var t mylib.T
	t.Live()
	var r mylib.Runner = t
	r.Run()
	fmt.Println(mylib.Used(), t, mylib.Box[int]{}.Get(), mylib.New().Peek())
	var s mylib.Stats
	s.Record(true)
	fmt.Println(s.Total)
	mylib.NewPair()
	var p mylib.Pipe = mylib.Full{}
	p.Open()
	p.Close()
	fmt.Println(mylib.Door{})
}
