package perfbench

import repro.core.{Mma, MmaConfig, MmaModel, Trmma, TrmmaConfig, TrmmaModel}
import repro.geo.{RoadNetwork, RoutePlanner}
import repro.mm.HmmMatcher
import repro.nn.{Node2Vec, Tensor}
import repro.recovery.{SeqRec, SeqRecConfig, SeqRecModel}
import repro.traj.{Datasets, Traj, TrajGen}
import Workload.{EpMTrajRec, EpMma, EpTrmma, NTrain, NWarm}

/** Everything set-up produces: the city, the trajectories drawn from the
  * seed, and the trained methods under test.
  */
final class World(
    val net: RoadNetwork,
    val epsilon: Double,
    val train: IndexedSeq[Traj],
    val warm: IndexedSeq[Traj],
    val timed: IndexedSeq[Traj],
    val n2v: Tensor,
    val planner: RoutePlanner,
    val mmaModel: MmaModel,
    val trmmaModel: TrmmaModel,
    val seqModel: SeqRecModel,
    val setupParts: Seq[(String, Double)],
) {
  val mma = new Mma(mmaModel, planner)
  val trmma = new Trmma(trmmaModel, mma, epsilon)
  val fmm = new HmmMatcher(net, planner)
  val mtrajrec = new SeqRec(seqModel, "MTrajRec")

  /** Hash of every trained parameter; equal across set-ups of one seed iff
    * training is deterministic.
    */
  def paramDigest: String = {
    val d = new Digest
    (mmaModel.params ++ trmmaModel.params ++ seqModel.params).foreach(p => d.doubles(p.data))
    d.hex
  }
}

object World {

  /** Node2Vec dimension shared by MMA, TRMMA and MTrajRec (their d0). */
  val EmbDim = 32

  /** Set-up: generate the network and trajectories, build Node2Vec and the
    * planner, train MMA, TRMMA and MTrajRec. `setupParts` holds the seconds
    * of each step.
    */
  def build(wl: Workload, seed: Long, nTimed: Int): World = {
    val parts = scala.collection.mutable.ArrayBuffer.empty[(String, Double)]
    def step[A](name: String)(f: => A): A = {
      val t0 = System.nanoTime()
      val r = f
      parts += name -> (System.nanoTime() - t0) / 1e9
      r
    }
    val cd = step("network")(Datasets(wl.city))
    val net = cd.net
    val all = step("trajectories")(
      TrajGen.generateLocal(net, cd.gen, NTrain + NWarm + nTimed, inputSeed(wl, seed)))
    val train = all.take(NTrain)
    val warm = all.slice(NTrain, NTrain + NWarm)
    val timed = all.drop(NTrain + NWarm)
    val n2v = step("node2vec")(Node2Vec.train(net, dim = EmbDim, epochs = 1, walksPerSeg = 3))
    val planner = step("planner")(RoutePlanner.fit(net, train.map(_.route.toSeq)))
    val mmaModel = step("mma_train") {
      val m = MmaModel.init(net, MmaConfig(), n2v)
      MmaModel.train(m, train, epochs = EpMma)
      m
    }
    val trmmaModel = step("trmma_train") {
      val m = TrmmaModel.init(net, TrmmaConfig(), n2v)
      TrmmaModel.train(m, train, epochs = EpTrmma)
      m
    }
    val seqModel = step("mtrajrec_train") {
      val m = SeqRecModel.init(net, SeqRecConfig("mtrajrec"), cd.gen.epsilon, n2v)
      SeqRecModel.train(m, train, epochs = EpMTrajRec)
      m
    }
    new World(net, cd.gen.epsilon, train, warm, timed, n2v, planner, mmaModel, trmmaModel, seqModel,
      parts.toSeq)
  }

  /** `Datasets` caches each city for the life of the JVM. Clearing it makes
    * every set-up repetition build the network again, together with
    * anything a later version precomputes alongside it. False when the
    * cache cannot be found.
    */
  def dropCachedCities(): Boolean =
    try {
      val f = Datasets.getClass.getDeclaredField("cache")
      f.setAccessible(true)
      f.get(Datasets).asInstanceOf[java.util.Map[_, _]].clear()
      true
    } catch { case _: ReflectiveOperationException | _: ClassCastException => false }

  /** Trajectory RNG seed of a workload run: the city and `--seed` together. */
  def inputSeed(wl: Workload, seed: Long): Long = wl.city.hashCode.toLong * 1000003L + seed
}
