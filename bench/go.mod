module worldsetdb/bench

go 1.24

require worldsetdb v0.0.0

replace worldsetdb => ../
