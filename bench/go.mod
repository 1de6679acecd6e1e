module qoz/bench

go 1.24

require qoz v0.0.0

replace qoz => ../
