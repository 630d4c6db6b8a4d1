// Fixture: storage including the service layer — moqo_lint must report
// `layering`.
#include "persist/format.h"
#include "service/plan_cache.h"
