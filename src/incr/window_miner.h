// The sliding-window miner's older name. A window is a row budget of the
// one incremental miner: IncrementalMiner<Kind> built with window_rows > 0
// (incr/incr_miner.h, DESIGN §5.10).

#ifndef DMC_INCR_WINDOW_MINER_H_
#define DMC_INCR_WINDOW_MINER_H_

#include "incr/incr_miner.h"

namespace dmc {

using WindowedImplicationMiner = IncrementalImplicationMiner;

}  // namespace dmc

#endif  // DMC_INCR_WINDOW_MINER_H_
