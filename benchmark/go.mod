module jiffy/benchmark

go 1.22

require jiffy v0.0.0

replace jiffy => ../
