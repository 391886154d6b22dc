#include "sim/node_engine_loop.hpp"

namespace ucr {

// The boxed element: test protocols and run_node_engine(const NodeFactory&,
// ...) run here, with one virtual call per protocol method.
template RunMetrics run_node_engine<BoxedStation>(const NodeFactory&,
                                                  const ArrivalPattern&,
                                                  Xoshiro256&,
                                                  const EngineOptions&);

}  // namespace ucr
