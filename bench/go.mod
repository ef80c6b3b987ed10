module ritm/bench

go 1.22

require ritm v0.0.0

replace ritm => ../
