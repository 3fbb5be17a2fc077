module pktpredict/bench

go 1.24

require pktpredict v0.0.0

replace pktpredict => ../
